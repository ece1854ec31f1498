package main

import (
	"ipa"
)

const tableName = "t"

// Device and pool geometry shared by all workloads.
const (
	pageSize      = 8 * 1024
	blocks        = 128
	pagesPerBlock = 64
	poolPages     = 128
	loadBatch     = 64 // rows per load transaction
)

// setupsPerRun is how many set-ups an untraced run times; setup_s is their
// median, because one sample of a one-second phase on a shared box swings
// by a quarter.
const setupsPerRun = 3

// workload describes one set of inputs. Operation counts are frozen: the
// measured phase runs opsPerSecond × --seconds operations, so for a given
// --seconds every count and virtual-clock metric repeats to the last digit.
type workload struct {
	name string
	why  string

	rows     int
	shrink   int // the tests' divisor of pool and device (0 = full size)
	mode     ipa.WriteMode
	scheme   ipa.Scheme
	getShare float64

	warmup       int
	opsPerSecond int // measured operations per nominal second of --seconds
	ckptEvery    int // operations between DB.Checkpoint calls

	wire  bool
	depth int // commands per client round trip (wire only)
}

var ipa2x4 = ipa.Scheme{N: 2, M: 4}

// Table sizes: 59 rows of 120 bytes fit an 8 KiB heap page.
const (
	resident = 3776  // rows: 0.5× the buffer pool
	larger   = 60416 // rows: 8× the buffer pool
)

// workloads lists the six workloads in the order BENCHMARK.json names them.
var workloads = []workload{
	{
		name: "mem_rw",
		why:  "every page resident, device idle: txn, wal, buffer hit, btree, heap and allocation do all the work",
		rows: resident, mode: ipa.IPANativeFlash, scheme: ipa2x4, getShare: 0.5,
		warmup: 500000, opsPerSecond: 450000, ckptEvery: 100000,
	},
	{
		name: "flash_rw",
		why:  "the paper's headline configuration at 8x pool: misses, dirty evictions, delta appends and GC; ecc, flashdev, ftl, storage do the work",
		rows: larger, mode: ipa.IPANativeFlash, scheme: ipa2x4, getShare: 0.5,
		warmup: 4000, opsPerSecond: 4000, ckptEvery: 7000,
	},
	{
		name: "flash_trad",
		why:  "flash_rw's table and operation stream on the traditional out-of-place write path: the paper's baseline",
		rows: larger, mode: ipa.Traditional, getShare: 0.5,
		warmup: 4000, opsPerSecond: 4000, ckptEvery: 7000,
	},
	{
		name: "flash_read",
		why:  "flash_rw's table at 95% gets: the miss, load, ECC-decode, delta-apply read path with write-back nearly idle",
		rows: larger, mode: ipa.IPANativeFlash, scheme: ipa2x4, getShare: 0.95,
		warmup: 4000, opsPerSecond: 6000, ckptEvery: 12000,
	},
	{
		name: "wire_rt",
		why:  "mem_rw's table behind the server on loopback TCP at depth 1: syscalls, hand-offs and a flush per command",
		rows: resident, mode: ipa.IPANativeFlash, scheme: ipa2x4, getShare: 0.5,
		warmup: 30000, opsPerSecond: 30000, ckptEvery: 100000,
		wire: true, depth: 1,
	},
	{
		name: "wire_pipe",
		why:  "the same with 32 commands per batch: codec and session throughput with the per-syscall cost amortised",
		rows: resident, mode: ipa.IPANativeFlash, scheme: ipa2x4, getShare: 0.5,
		warmup: 150000, opsPerSecond: 180000, ckptEvery: 100000,
		wire: true, depth: 32,
	},
}

// sliceOps is the operation count of one of the slicesPerRun slices of a
// measured phase of the given nominal length: whole batches on the wire.
func (w workload) sliceOps(seconds int) int {
	n := w.opsPerSecond * seconds / slicesPerRun
	if w.depth > 1 {
		n -= n % w.depth
	}
	return max(n, 1)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the engine configuration of a workload: everything that could
// start a background goroutine or charge wall time is off, so the driver
// is the only thread touching the engine and counts repeat exactly.
func (w workload) config() ipa.Config {
	return ipa.Config{
		PageSize:        pageSize,
		Blocks:          blocks / max(w.shrink, 1),
		PagesPerBlock:   pagesPerBlock,
		Chips:           1,
		FlashMode:       ipa.PSLC,
		WriteMode:       w.mode,
		Scheme:          w.scheme,
		BufferPoolPages: poolPages / max(w.shrink, 1),
	}
}

// scaled divides the operation counts — warm-up, measured rate and the
// checkpoint spacing — by div, and the table, the pool and the device by
// eight, which keeps the table-to-pool ratio every workload is named for.
// The tests use it to run every workload in a fraction of a second.
func (w workload) scaled(div int) workload {
	w.warmup = max(1, w.warmup/div)
	w.opsPerSecond = max(1, w.opsPerSecond/div)
	w.ckptEvery = max(1, w.ckptEvery/div)
	w.rows, w.shrink = w.rows/8, 8
	return w
}
