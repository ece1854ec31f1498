package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// resultSet is what -collect writes and -compare reads: for every workload
// and end-to-end metric, the values of the runs in the order they were made.
type resultSet struct {
	Seconds   int                             `json:"seconds"`
	Seeds     []uint64                        `json:"seeds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

func newResultSet(seconds int) *resultSet {
	return &resultSet{Seconds: seconds, Workloads: map[string]map[string][]float64{}}
}

func (s *resultSet) add(workload string, res *result) {
	m := s.Workloads[workload]
	if m == nil {
		m = map[string][]float64{}
		s.Workloads[workload] = m
	}
	for name, v := range res.Metrics {
		m[name] = append(m[name], v.Value)
	}
}

// runSelf runs one untraced run in a process of its own, as the driver
// does, so no run inherits the heap or the goroutines of the one before.
func runSelf(workload string, seed uint64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

func runCollect(n int, seed uint64, seconds int, path string) error {
	if path == "" {
		return fmt.Errorf("-collect needs -out")
	}
	set := newResultSet(seconds)
	for i := 0; i < n; i++ {
		set.Seeds = append(set.Seeds, seed+uint64(i))
		for _, w := range workloads {
			res, err := runSelf(w.name, seed+uint64(i), seconds)
			if err != nil {
				return err
			}
			set.add(w.name, res)
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, n, w.name)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAA measures the same code twice, n runs per workload and set, the
// sets alternating (ABAB…) with seed i shared by the i-th run of both, and
// fails if the sets disagree by more than the benchmark's own bounds allow.
func runAA(w io.Writer, n int, seed uint64, seconds int) error {
	a, b := newResultSet(seconds), newResultSet(seconds)
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			for _, set := range []*resultSet{a, b} {
				res, err := runSelf(wl.name, seed+uint64(i), seconds)
				if err != nil {
					return err
				}
				set.add(wl.name, res)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s done\n", i+1, n, wl.name)
		}
	}
	worse, inexact := compareSets(w, a, b, true)
	if worse > 0 || inexact > 0 {
		return fmt.Errorf("A/A: %d metrics beyond their bound, %d exact metrics differ", worse, inexact)
	}
	fmt.Fprintln(w, "A/A: every end-to-end median within its bound; every device-clock and count metric identical")
	return nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	var sets [2]resultSet
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if sets[0].Seconds != sets[1].Seconds {
		return fmt.Errorf("run lengths differ: %d s and %d s", sets[0].Seconds, sets[1].Seconds)
	}
	compareSets(w, &sets[0], &sets[1], false)
	return nil
}

// compareSets prints, per workload, the delta table of the end-to-end
// metrics and returns how many got worse by more than their bound and, for
// an A/A comparison, how many exact metrics differ in any run.
//
// Verdicts: worse = the median worsened by more than the bound; unresolved
// = it did not, but the parent's own interquartile range is wider than the
// bound, so "no regression" cannot be claimed; better = the median improved
// by more than the parent's interquartile range and the change won at least
// nine tenths of the pairs (run i of both sets shares seed i; ties count
// for neither); same = the rest.
func compareSets(w io.Writer, parent, change *resultSet, aa bool) (worse, inexact int) {
	for _, wl := range workloads {
		pm, cm := parent.Workloads[wl.name], change.Workloads[wl.name]
		if pm == nil || cm == nil {
			continue
		}
		fmt.Fprintf(w, "%s (%d and %d runs of %d s)\n", wl.name, len(pm["setup_s"]), len(cm["setup_s"]), parent.Seconds)
		fmt.Fprintf(w, "  %-16s %-6s %-8s %14s %14s %8s %8s %6s  %s\n", "metric", "unit", "clock", "parent", "change", "delta", "spread", "bound", "verdict")
		for _, m := range endToEnd {
			pv, cv := pm[m.name], cm[m.name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pmed, cmed := median(pv), median(cv)
			delta := ratio(cmed-pmed, pmed)
			worsening := delta
			if m.better == "higher" {
				worsening = -delta
			}
			spread := ratio(iqr(pv), pmed)
			verdict := "same"
			switch {
			case worsening > m.bound:
				verdict = "worse"
				worse++
			case spread > m.bound:
				verdict = "unresolved"
			case worsening < 0 && -worsening > spread && winShare(pv, cv, m.better) >= 0.9:
				verdict = "better"
			}
			if aa && m.exact() && !slices.Equal(pv, cv) {
				verdict += ", not exact"
				inexact++
			}
			fmt.Fprintf(w, "  %-16s %-6s %-8s %14s %14s %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				m.name, m.unit, m.clock, formatValue(pmed), formatValue(cmed), 100*delta, 100*spread, 100*m.bound, verdict)
		}
	}
	return worse, inexact
}

// winShare is the share of pairs (parent[i], change[i]) the change won,
// ties left out; 0 if every pair tied.
func winShare(parent, change []float64, better string) float64 {
	wins, losses := 0, 0
	for i := 0; i < min(len(parent), len(change)); i++ {
		switch d := change[i] - parent[i]; {
		case d == 0:
		case (d < 0) == (better == "lower"):
			wins++
		default:
			losses++
		}
	}
	return ratio(float64(wins), float64(wins+losses))
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(vs, n=4) places them (exclusive method); 0 for fewer
// than two values.
func iqr(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		rem := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-rem) + s[j]*rem) / 4
	}
	return q(3) - q(1)
}
