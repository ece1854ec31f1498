// Package ipa_test contains the benchmark harness entry points that
// regenerate every table and figure of the paper's evaluation as Go
// benchmarks. Each benchmark runs a scaled-down version of the experiment
// (see EXPERIMENTS.md for the full-size runs produced by cmd/ipabench) and
// reports the paper's metrics via testing.B custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints, for every experiment, the quantities the paper's tables report
// (GC migrations and erases per host write, in-place-append share,
// transactional throughput, write amplification, ...).
package ipa_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipa"
	"ipa/internal/bench"
	"ipa/internal/core"
	"ipa/internal/page"
)

// quickOptions is the -quick device with the paper's scheme, bounded to ops
// transactions at scale 1: it keeps the Go benchmarks quick while still
// triggering garbage collection on the simulated device.
func quickOptions(ops int) bench.Options {
	o := bench.Base
	o.Quick, o.Profile, o.Scale, o.Ops = true, bench.SmallProfile, 1, ops
	return o
}

// reportTable1Column publishes one Table 1 configuration as benchmark metrics.
func reportTable1Column(b *testing.B, s ipa.Stats) {
	b.Helper()
	b.ReportMetric(float64(s.HostReads), "hostReads")
	b.ReportMetric(float64(s.TotalHostWrites()), "hostWrites")
	b.ReportMetric(100*s.InPlaceShare(), "inPlace%")
	b.ReportMetric(float64(s.GCMigrations), "gcMigrations")
	b.ReportMetric(float64(s.GCErases), "gcErases")
	b.ReportMetric(s.MigrationsPerHostWrite(), "migrations/write")
	b.ReportMetric(s.ErasesPerHostWrite(), "erases/write")
	b.ReportMetric(s.Throughput(), "tps")
}

// table1Config runs one Table 1 configuration (one column of the table).
func table1Config(b *testing.B, mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) {
	b.Helper()
	p := bench.SmallProfile
	cfg := ipa.Config{
		PageSize: p.PageSize, Blocks: p.Blocks, PagesPerBlock: p.PagesPerBlock, BufferPoolPages: p.BufferPoolPages,
		WriteMode: mode, Scheme: scheme, FlashMode: flash, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(quickOptions(5000), "tpcb", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable1Column(b, res.Stats)
		}
	}
}

// BenchmarkTable1TPCBTraditional is the [0×0] baseline column of Table 1.
func BenchmarkTable1TPCBTraditional(b *testing.B) {
	table1Config(b, ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)
}

// BenchmarkTable1TPCBIPA2x4PSLC is the [2×4] pSLC column of Table 1.
func BenchmarkTable1TPCBIPA2x4PSLC(b *testing.B) {
	table1Config(b, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
}

// BenchmarkTable1TPCBIPA2x4OddMLC is the [2×4] odd-MLC column of Table 1.
func BenchmarkTable1TPCBIPA2x4OddMLC(b *testing.B) {
	table1Config(b, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.OddMLC)
}

// BenchmarkFigure1WriteAmplification reproduces Figure 1: the DBMS
// write-amplification of the traditional write path and the transfer
// reduction achieved by write_delta, per workload.
func BenchmarkFigure1WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure1(quickOptions(1200))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				ts := row.Traditional
				b.ReportMetric(100*ts.SmallEvictionShare(), row.Workload+"-<100B-evictions%")
				b.ReportMetric(float64(ts.NetChangedBytes)/float64(max(1, ts.DirtyEvictions)), row.Workload+"-avgChangedBytes")
				b.ReportMetric(ts.DBMSWriteAmplification(), row.Workload+"-writeAmp")
				b.ReportMetric(row.TransferReduction(), row.Workload+"-ipaTransferReduction%")
				b.ReportMetric(100*row.IPA.InPlaceShare(), row.Workload+"-ipaInPlace%")
			}
		}
	}
}

// BenchmarkOLTPSuite reproduces the headline claims (experiment E3): the
// throughput gain and the reduction of invalidations, migrations and erases
// of IPA over the traditional baseline for TPC-B, TPC-C and TATP.
func BenchmarkOLTPSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Suite(quickOptions(3000))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Baseline.Throughput(), row.Workload+"-baseTps")
				b.ReportMetric(row.IPA.Throughput(), row.Workload+"-ipaTps")
				inval, _, erase := row.Drops()
				b.ReportMetric(row.ThroughputGain(), row.Workload+"-tpsGain%")
				b.ReportMetric(inval, row.Workload+"-invalidationDrop%")
				b.ReportMetric(erase, row.Workload+"-eraseDrop%")
			}
		}
	}
}

// BenchmarkIPAvsIPL reproduces the comparison against In-Page Logging
// (experiment E4): Flash writes, reads and erases of both approaches on the
// same eviction trace.
func BenchmarkIPAvsIPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.IPLCompare(quickOptions(1200))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				s, l := row.IPA, row.IPL
				writes := float64(s.FlashPagePrograms + s.FlashDeltaPrograms)
				b.ReportMetric(writes, row.Workload+"-ipaWrites")
				b.ReportMetric(float64(l.TotalFlashWrites()), row.Workload+"-iplWrites")
				b.ReportMetric(100*(1-writes/float64(l.TotalFlashWrites())), row.Workload+"-writeReduction%")
				b.ReportMetric(100*(1-float64(s.FlashBlockErases)/float64(max(1, l.Erases))), row.Workload+"-eraseReduction%")
				b.ReportMetric(100*(float64(l.TotalFlashReads())/float64(s.FlashPageReads)-1), row.Workload+"-iplReadOverhead%")
			}
		}
	}
}

// BenchmarkLongevity reproduces the Flash-lifetime estimate (experiment E5):
// how many times longer the device lasts under IPA, derived from the erase
// rate per host write. The first two rows are TPC-B's baseline and IPA.
func BenchmarkLongevity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Suite(quickOptions(5000))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			rows := bench.Longevity(res)
			b.ReportMetric(rows[0].ErasesPerHostWrite(), "baseErases/write")
			b.ReportMetric(rows[1].ErasesPerHostWrite(), "ipaErases/write")
			b.ReportMetric(rows[1].RelativeLifetime, "lifetimeX")
		}
	}
}

// BenchmarkSchemeSweep reproduces the N×M ablation (experiment E6): the
// space overhead of the delta-record area against the share of evictions
// served by in-place appends, for every scheme of the -quick grid.
func BenchmarkSchemeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(quickOptions(1000))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				area := core.Scheme{N: row.Scheme.N, M: row.Scheme.M}.AreaSize(page.MetaSize)
				b.ReportMetric(100*float64(area)/float64(res.PageSize), row.Scheme.String()+"-areaOverhead%")
				b.ReportMetric(100*row.InPlaceShare(), row.Scheme.String()+"-inPlace%")
				b.ReportMetric(row.Throughput(), row.Scheme.String()+"-tps")
			}
		}
	}
}

// BenchmarkScenarios reproduces the three demonstration scenarios of the
// paper (traditional, IPA on a conventional SSD, IPA on native Flash) and
// reports the transferred bytes and throughput of each.
func BenchmarkScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Scenarios(quickOptions(3000))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Baseline.HostBytesWritten), "baseBytes")
			b.ReportMetric(float64(res.SSD.HostBytesWritten), "ssdBytes")
			b.ReportMetric(float64(res.Native.HostBytesWritten), "nativeBytes")
			b.ReportMetric(res.Baseline.Throughput(), "baseTps")
			b.ReportMetric(res.Native.Throughput(), "nativeTps")
		}
	}
}

// BenchmarkInterference reproduces the program-interference ablation of
// Section 3: bit errors accumulated by each MLC operation mode under fault
// injection.
func BenchmarkInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Interference(quickOptions(2000))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				b.ReportMetric(float64(row.InterferenceBits), row.FlashMode.String()+"-bits")
			}
		}
	}
}

// BenchmarkEngineUpdateTraditional measures the end-to-end cost (in real
// time) of a small transactional update under the traditional write path.
func BenchmarkEngineUpdateTraditional(b *testing.B) {
	benchmarkEngineUpdate(b, ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)
}

// BenchmarkEngineUpdateIPANative measures the same update under IPA.
func BenchmarkEngineUpdateIPANative(b *testing.B) {
	benchmarkEngineUpdate(b, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
}

// BenchmarkConcurrentUpdates measures aggregate transactional update
// throughput as the number of client goroutines grows. Workers update
// disjoint key ranges, so the run exercises the sharded buffer pool
// (different pages, different shard latches) and the group-commit WAL
// (concurrent commits share the simulated log-device flush). The ns/op
// figure is per committed transaction: with 8 goroutines it must be well
// below the single-goroutine baseline.
func BenchmarkConcurrentUpdates(b *testing.B) {
	for _, goroutines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			db, err := ipa.Open(ipa.Config{
				PageSize:        4096,
				Blocks:          96,
				PagesPerBlock:   32,
				BufferPoolPages: 64,
				WriteMode:       ipa.IPANativeFlash,
				Scheme:          ipa.Scheme{N: 2, M: 4},
				FlashMode:       ipa.PSLC,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			ipa.DelayLogFlushes(db, 50*time.Microsecond)
			table, err := db.CreateTable("t", 100)
			if err != nil {
				b.Fatal(err)
			}
			const keys = 2048
			row := make([]byte, 100)
			for k := int64(0); k < keys; k++ {
				if err := insertRow(db, table, k, row); err != nil {
					b.Fatal(err)
				}
			}
			db.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			perWorker := b.N / goroutines
			extra := b.N % goroutines
			for w := 0; w < goroutines; w++ {
				ops := perWorker
				if w < extra {
					ops++
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					base := int64(w) * (keys / int64(goroutines))
					span := keys / int64(goroutines)
					for i := 0; i < ops; i++ {
						key := base + int64(i*17)%span
						tx := db.Begin()
						if err := tx.UpdateAt(table, key, 8, []byte{byte(i), byte(w)}); err != nil {
							b.Error(err)
							_ = tx.Abort()
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, ops)
			}
			wg.Wait()
			b.StopTimer()
			s := db.Stats()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(s.CommittedTxns)/b.Elapsed().Seconds(), "ops/s")
			}
			b.ReportMetric(s.CommitsPerFlush(), "commits/flush")
		})
	}
}

func benchmarkEngineUpdate(b *testing.B, mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) {
	b.Helper()
	db, err := ipa.Open(ipa.Config{
		PageSize:        4096,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 32,
		WriteMode:       mode,
		Scheme:          scheme,
		FlashMode:       flash,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	table, err := db.CreateTable("t", 100)
	if err != nil {
		b.Fatal(err)
	}
	const keys = 2000
	row := make([]byte, 100)
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, table, k, row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.UpdateAt(table, int64(i)%keys, 8, []byte{byte(i), byte(i >> 8)}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := db.Stats()
	b.ReportMetric(float64(s.InPlaceAppends), "inPlaceAppends")
	b.ReportMetric(float64(s.GCErases), "gcErases")
}

// BenchmarkSnapshotReadMix runs a shrunken read-skew ladder (`ipabench
// -exp readmix` runs the full one) and reports its 90%-read hot-set mix,
// executed once with MVCC snapshot reads and once with 2PL locked reads.
// The gap between the two reported conflict counts is the lock-free-reader
// win. Writes lock in both modes, so the snapshot row still acquires
// locks for its 10% writes — but strictly fewer than the locked row,
// whose reads lock too (the 100%-read zero-lock proof lives in
// TestReadersAcquireNoRecordLocks and TestReadMixScenario).
func BenchmarkSnapshotReadMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := quickOptions(600)
		o.Threads = 4
		res, err := bench.ReadMix(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			snap, lock := res.Rows[2], res.Rows[3]
			if snap.ReadPct != 90 || snap.Locked || lock.ReadPct != 90 || !lock.Locked {
				b.Fatalf("rows 2 and 3 are (%d%%, locked=%v) and (%d%%, locked=%v), want the 90%% (snapshot, locked) pair",
					snap.ReadPct, snap.Locked, lock.ReadPct, lock.Locked)
			}
			if snap.SnapshotReads == 0 {
				b.Fatalf("snapshot row recorded no snapshot reads")
			}
			if snap.LockAcquisitions >= lock.LockAcquisitions {
				b.Fatalf("snapshot row locked %d times, locked row %d — snapshot reads are not lock-free",
					snap.LockAcquisitions, lock.LockAcquisitions)
			}
			b.ReportMetric(float64(snap.LockConflicts), "snapConflicts")
			b.ReportMetric(float64(lock.LockConflicts), "lockConflicts")
			b.ReportMetric(float64(snap.SnapshotReads), "snapReads")
		}
	}
}

// residentTable opens the benchmark's mem_rw geometry — 8 KiB pages, a
// 128-page pool, 3 776 rows of 120 bytes (half the pool), [2×4] on native
// Flash in pSLC mode — loads it through transactions and checkpoints, so
// every page an operation touches is resident and the device is idle. What
// is left is the substrate above eviction: begin, lock, log, version,
// commit, buffer hit, page update. The allocation pins in fastpath_test.go
// run on the same table.
func residentTable(b testing.TB) (*ipa.DB, *ipa.Table) {
	return benchTable(b, residentRows, 1, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4})
}

// missTable is residentTable's geometry under the benchmark's flash_rw and
// flash_trad tables: 60 416 rows, eight times the pool, so an operation on
// the next heap page (missWalk) misses and, once updates have dirtied the
// pool, evicts a dirty page. What is measured is the path below the
// buffer hit: eviction, delta append or out-of-place write, garbage
// collection, read, ECC and page reconstruction.
func missTable(b testing.TB, mode ipa.WriteMode, scheme ipa.Scheme) (*ipa.DB, *ipa.Table) {
	return benchTable(b, missRows, 1, mode, scheme)
}

// benchConfig is the benchmark's engine geometry with the device and the
// pool divided by shrink.
func benchConfig(shrink int, mode ipa.WriteMode, scheme ipa.Scheme) ipa.Config {
	return ipa.Config{
		PageSize:        8 * 1024,
		Blocks:          128 / shrink,
		PagesPerBlock:   64,
		Chips:           1,
		FlashMode:       ipa.PSLC,
		WriteMode:       mode,
		Scheme:          scheme,
		BufferPoolPages: 128 / shrink,
	}
}

// benchTable loads rows rows into the benchmark's geometry with the device
// and the pool divided by shrink.
func benchTable(b testing.TB, rows int64, shrink int, mode ipa.WriteMode, scheme ipa.Scheme) (*ipa.DB, *ipa.Table) {
	b.Helper()
	db, err := ipa.Open(benchConfig(shrink, mode, scheme))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	table, err := db.CreateTable("t", residentTupleSize)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]byte, residentTupleSize)
	for k := int64(0); k < rows; {
		tx := db.Begin()
		for n := 0; n < 64 && k < rows; n, k = n+1, k+1 {
			if err := tx.Insert(table, k, row); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return db, table
}

const (
	residentRows      = 3776
	residentTupleSize = 120
	residentCkptEvery = 100000 // operations between checkpoints, as mem_rw runs them

	missRows      = 60416
	missCkptEvery = 7000 // as flash_rw runs them
)

// BenchmarkLoad is the bulk load every experiment starts with, on the
// benchmark's flash_* table: open, missRows rows of 120 bytes inserted 64 per
// transaction, flush, checkpoint, close. Every row differs, so each fresh
// heap page's first write diffs a full body against its zeroed image.
// allocs/row is allocs/op over the rows; TestLoadAllocations pins it.
func BenchmarkLoad(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := ipa.Open(benchConfig(1, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}))
		if err != nil {
			b.Fatal(err)
		}
		table, err := db.CreateTable("t", residentTupleSize)
		if err != nil {
			b.Fatal(err)
		}
		row := make([]byte, residentTupleSize)
		for k := int64(0); k < missRows; k += 64 {
			if err := loadBatch(db, table, k, 64, row); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.FlushAll(); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*missRows), "allocs/row")
}

// loadBatch inserts the rows keyed first..first+count-1 in one transaction,
// each row a different image of its key.
func loadBatch(db *ipa.DB, table *ipa.Table, first int64, count int, row []byte) error {
	tx := db.Begin()
	for k := first; k < first+int64(count); k++ {
		for o := 0; o+8 <= len(row); o += 8 {
			binary.LittleEndian.PutUint64(row[o:], uint64(k)*0x9E3779B97F4A7C15+uint64(o))
		}
		if err := tx.Insert(table, k, row); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// BenchmarkResidentUpdateTxn is one Begin → UpdateAt → Commit of an 8-byte
// field on a resident page: the isolating benchmark of the transaction
// layer. allocs/op is the figure the tier-1 AllocsPerRun tests pin.
func BenchmarkResidentUpdateTxn(b *testing.B) {
	db, table := residentTable(b)
	var patch [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patch[0], patch[1], patch[2] = byte(i), byte(i>>8), byte(i>>16)
		tx := db.Begin()
		if err := tx.UpdateAt(table, int64(i*31)%residentRows, 112, patch[:]); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if i%residentCkptEvery == residentCkptEvery-1 {
			if _, err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkResidentGet is one statement-snapshot Table.Get of a resident
// row: oracle snapshot, B-tree probe, version resolve, shared buffer hit and
// the copy handed to the caller.
func BenchmarkResidentGet(b *testing.B) {
	_, table := residentTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := table.Get(int64(i*31) % residentRows)
		if err != nil || len(v) != residentTupleSize {
			b.Fatalf("get: %v (%d bytes)", err, len(v))
		}
	}
}

// missWalk returns the key of the i-th operation on a missTable: the first
// row of heap page i mod pages. The heap pages — 944 with a delta area, 930
// without — are walked in page order, a cycle that misses every time under
// any policy that has no more than an eighth of it to keep and nothing to
// tell its pages apart by: recency evicts each page long before its turn
// comes again, and frequency finds nothing to prefer among pages all fetched
// equally often. Updates on the IPA path do tell them apart: every third
// residency of a page ends in a whole-page write, the pool prices those
// frames higher, and a few of them outlive a lap (BenchmarkMissEvictNative:
// 0.96 misses per operation).
func missWalk(table *ipa.Table) func(i int64) int64 {
	pages := int64(table.Pages())
	perPage := (missRows + pages - 1) / pages
	return func(i int64) int64 { return i % pages * perPage }
}

// missUpdateTxn is one Begin → UpdateAt → Commit of an 8-byte field of the
// row with the given key, whose page is not resident; seq is what it writes.
func missUpdateTxn(db *ipa.DB, table *ipa.Table, key, seq int64, patch *[8]byte) error {
	binary.LittleEndian.PutUint64(patch[:], uint64(seq))
	tx := db.Begin()
	if err := tx.UpdateAt(table, key, 112, patch[:]); err != nil {
		return err
	}
	return tx.Commit()
}

func benchmarkMissEvict(b *testing.B, mode ipa.WriteMode, scheme ipa.Scheme) {
	db, table := missTable(b, mode, scheme)
	key := missWalk(table)
	var patch [8]byte
	for i := int64(0); i < 2048; i++ { // the pool fills with dirty pages, the device starts collecting
		if err := missUpdateTxn(db, table, key(i), i, &patch); err != nil {
			b.Fatal(err)
		}
	}
	before := db.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := int64(0); i < int64(b.N); i++ {
		if err := missUpdateTxn(db, table, key(2048+i), 2048+i, &patch); err != nil {
			b.Fatal(err)
		}
		if i%missCkptEvery == missCkptEvery-1 {
			if _, err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	after := db.Stats()
	b.ReportMetric(float64(after.BufferMisses-before.BufferMisses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(after.DirtyEvictions-before.DirtyEvictions)/float64(b.N), "dirty-evictions/op")
}

// BenchmarkMissEvictNative is an update transaction that misses and evicts a
// dirty page on the paper's configuration, [2×4] on native Flash: the
// isolating benchmark of the path below the buffer hit. allocs/op is the
// transaction's own three plus whatever a miss and an eviction cost — zero,
// pinned in fastpath_test.go and, layer by layer, in internal/.
func BenchmarkMissEvictNative(b *testing.B) {
	benchmarkMissEvict(b, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4})
}

// BenchmarkMissEvictTrad is the same on the traditional out-of-place write
// path.
func BenchmarkMissEvictTrad(b *testing.B) {
	benchmarkMissEvict(b, ipa.Traditional, ipa.Scheme{})
}
