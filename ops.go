package ipa

import (
	"time"
)

// This file implements the derived operational gauges behind the live ops
// surface (docs/DESIGN_OPS.md): the device-lifetime burn gauge that turns
// the paper's one-shot E5 longevity estimate into a number you can watch
// move on a running server, and the windowed rates (tps, evictions/s,
// in-place-append share, erase rate) computed from the two newest counter
// readings, which the server's scrapes take.
//
// All rates are computed over *virtual* device time, the same clock
// Stats.Throughput uses — which keeps them deterministic under test (a
// virtual-clock run yields closed-form expected values) and comparable
// across write modes. Wall-clock widths are reported alongside for
// dashboard context only.

// OpsStats is the derived ops gauge set: lifetime burn plus trailing-window
// rates. DB.Ops takes the trailing window between the two newest
// readings when SampleOps has taken two, and the Stats window (since the
// last ResetStats) otherwise; a ResetStats moves the latter and leaves the
// readings alone.
type OpsStats struct {
	// EraseBudget is the total block erases the device can absorb before
	// every block reaches its endurance: blocks (across all chips) ×
	// endurance cycles per block.
	EraseBudget uint64 `json:"erase_budget" stat:"gauge" metric:"ipa_device_erase_budget"`
	// ErasesConsumed is the lifetime erase total (Stats.TotalErasesEver).
	ErasesConsumed uint64 `json:"erases_consumed" stat:"lifetime"`
	// LifeBurned is ErasesConsumed / EraseBudget: the fraction of the
	// device's lifetime already spent. 1.0 means the budget is exhausted.
	LifeBurned float64 `json:"life_burned" stat:"gauge" metric:"ipa_device_life_burned_ratio"`
	// ErasesAvoided estimates how many erases in-place appends saved over
	// the NoFTL/out-of-place baseline in the Stats window: each in-place
	// append replaced one out-of-place page write, and one block's usable
	// pages' worth of page writes (all its pages, or under pSLC the LSB
	// half) cost the device one eventual GC erase, so ErasesAvoided =
	// InPlaceAppends / usable pages per block. This is the live
	// form of the paper's E5 longevity estimate (first-order: it ignores
	// GC migration write amplification, which only increases the saving).
	ErasesAvoided uint64 `json:"erases_avoided" metric:"ipa_device_erases_avoided_total"`
	// BaselineErases is what the modelled baseline would have consumed in
	// the same window: the erases actually performed plus the avoided ones.
	BaselineErases uint64 `json:"baseline_erases"`

	// WindowVirtual / WindowWall are the width of the trailing window the
	// rates below cover (WindowWall is 0 for the Stats window).
	WindowVirtual time.Duration `json:"window_virtual" stat:"gauge"`
	WindowWall    time.Duration `json:"window_wall" stat:"gauge"`
	// WindowTPS is committed transactions per virtual second in the window.
	WindowTPS float64 `json:"window_tps" stat:"gauge"`
	// WindowEvictionsPerSec is dirty page evictions per virtual second.
	WindowEvictionsPerSec float64 `json:"window_evictions_per_sec" stat:"gauge"`
	// WindowInPlaceShare is the fraction of window host writes served as
	// in-place appends (0 when the window saw no writes).
	WindowInPlaceShare float64 `json:"window_in_place_share" stat:"gauge"`
	// WindowEraseRatePerSec is block erases per virtual second in the
	// window — the burn speed.
	WindowEraseRatePerSec float64 `json:"window_erase_rate_per_sec" stat:"gauge"`
	// TimeToDeath extrapolates the remaining erase budget at the window
	// erase rate: (EraseBudget − ErasesConsumed) / WindowEraseRatePerSec,
	// in virtual time. 0 means no erase activity in the window (the
	// device is not measurably dying) or the budget is already exhausted.
	TimeToDeath time.Duration `json:"time_to_death" stat:"gauge" metric:"ipa_device_time_to_death_seconds"`
	// Samples is how many readings SampleOps has taken (0 or 1 means the
	// rates cover the Stats window).
	Samples int `json:"samples" stat:"gauge"`
}

// SampleOps takes one reading of every counter; the newest two bound the
// trailing window. The server's /metrics and /stats.json take one per
// scrape, so their window is the span since the scrape before; tests and
// tools call it around a deterministic virtual-clock workload phase.
func (db *DB) SampleOps() {
	db.opsMu.Lock()
	defer db.opsMu.Unlock()
	// Read under opsMu, so the newest reading is later than the one
	// before it.
	db.opsPrev, db.opsLast = db.opsLast, db.read()
	db.opsSamples++
}

// Ops computes the derived operational gauges. The trailing window is the
// span between the two newest readings; with fewer than two it is the
// Stats window, so Ops is meaningful before any reading is taken.
func (db *DB) Ops() OpsStats {
	s := db.Stats()
	o := OpsStats{
		EraseBudget:    uint64(db.dev.Geometry().Blocks) * uint64(s.EnduranceCycles),
		ErasesConsumed: s.TotalErasesEver,
		ErasesAvoided:  s.InPlaceAppends / uint64(db.ftl.UsablePerBlock()),
	}
	if o.EraseBudget > 0 {
		o.LifeBurned = float64(o.ErasesConsumed) / float64(o.EraseBudget)
	}
	o.BaselineErases = s.FlashBlockErases + o.ErasesAvoided

	w := s
	db.opsMu.Lock()
	if o.Samples = db.opsSamples; o.Samples >= 2 {
		w, o.WindowWall = window(db.opsPrev, db.opsLast), db.opsLast.wall.Sub(db.opsPrev.wall)
	}
	db.opsMu.Unlock()
	o.WindowVirtual = w.Elapsed
	if secs := w.Elapsed.Seconds(); secs > 0 {
		o.WindowTPS = float64(w.CommittedTxns) / secs
		o.WindowEvictionsPerSec = float64(w.DirtyEvictions) / secs
		o.WindowEraseRatePerSec = float64(w.FlashBlockErases) / secs
	}
	o.WindowInPlaceShare = w.InPlaceShare()
	if o.WindowEraseRatePerSec > 0 && o.ErasesConsumed < o.EraseBudget {
		remaining := float64(o.EraseBudget - o.ErasesConsumed)
		o.TimeToDeath = time.Duration(remaining / o.WindowEraseRatePerSec * float64(time.Second))
	}
	return o
}
