module ipa/benchmark

go 1.24

require ipa v0.0.0

replace ipa => ../
