package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"ipa"
	"ipa/internal/btree"
	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/ecc"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/heap"
	"ipa/internal/index"
	"ipa/internal/nand"
	"ipa/internal/page"
	"ipa/internal/proto"
	"ipa/internal/region"
	"ipa/internal/server"
	"ipa/internal/storage"
	"ipa/internal/txn"
	"ipa/internal/wal"
	"ipa/ipaclient"
)

// Layer probes call each layer's public functions in isolation, on inputs
// shaped like the workloads' (8 KiB page of 120-byte rows, 8-byte patch at
// offset 112, [2×4], pSLC, ECC on), and report the wall time of one call.
// They are the ns/call column of the budget table; the calls/op column
// comes from the counters of the run itself.

const (
	probePages  = 256 // pages a fixture loads: twice the pool, so a cycle over them always misses
	heapObject  = 1
	indexObject = 2
)

var probeScheme = core.Scheme{N: 2, M: 4}

// stopwatch times individual calls, for probes whose calls need untimed
// preparation in between, and reports the median call: a burst of
// interference on a shared box lands in a few samples, not in the figure.
// Each reading costs one timer call, which perCall takes back out.
type stopwatch struct {
	samples []int64
	timerNs float64
}

func (s *stopwatch) time(fn func()) {
	t := time.Now()
	fn()
	s.samples = append(s.samples, int64(time.Since(t)))
}

func (s *stopwatch) perCall() float64 {
	return max(0, medianInt64(s.samples)-s.timerNs)
}

// firstErr keeps the first error of a timed loop without a branch the
// caller has to write inside it.
type firstErr struct{ err error }

func (f *firstErr) set(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// timeLoop makes n back-to-back calls in eight equal batches and returns
// the nanoseconds per call of the median batch, for the same reason the
// stopwatch reports a median. fn receives 0…n-1 in order, so calls that
// consume state (program the next page) fit as well as calls that do not.
func timeLoop(n int, fn func(i int)) float64 {
	per := max(n/8, 1)
	var batches []int64
	for i := 0; i < n; {
		t := time.Now()
		for end := min(i+per, n); i < end; i++ {
			fn(i)
		}
		batches = append(batches, int64(time.Since(t)))
	}
	return medianInt64(batches) / float64(per)
}

// timerCost is the cost of reading the clock once, as the runner does per
// operation.
func timerCost() float64 {
	base := time.Now()
	var sink time.Duration
	ns := timeLoop(1<<20, func(int) { sink += time.Since(base) })
	_ = sink
	return ns
}

// pageImage formats one heap page the way the storage manager does and
// fills it with rows.
func pageImage(pid uint64, area int) ([]byte, *page.Page, error) {
	buf := make([]byte, pageSize)
	pg, err := page.Init(buf, pid, heapObject, area)
	if err != nil {
		return nil, nil, err
	}
	var row [tupleSize]byte
	for k := int64(0); pg.FreeSpace() >= tupleSize+8; k++ {
		rowImage(row[:], k)
		if _, err := pg.InsertTuple(row[:]); err != nil {
			break
		}
	}
	pg.ResetDeltaArea() // erased, as every whole-page write leaves it
	return buf, pg, nil
}

// encodedDelta is what one 8-byte update appends to a page: its patches
// split over the records of the scheme, encoded as the storage manager
// encodes them.
func encodedDelta(pg *page.Page) ([]byte, []core.DeltaRecord, error) {
	t := core.NewTracker(probeScheme, page.MetaSize, pg.BodyEnd(), 0)
	old := make([]byte, patchLen)
	patch := bytes.Repeat([]byte{0x5a}, patchLen)
	t.RecordWrite(page.HeaderSize+patchOff, old, patch)
	records := t.BuildRecords(pg.Meta())
	size := probeScheme.RecordSize(page.MetaSize)
	enc := bytes.Repeat([]byte{0xff}, size*len(records))
	for i, rec := range records {
		if err := core.EncodeRecord(enc[i*size:], rec, probeScheme, page.MetaSize); err != nil {
			return nil, nil, err
		}
	}
	return enc, records, nil
}

// probeDeviceConfig is the device the workloads run on. The probes of the
// layers above ecc switch ECC off: it is 95% of a page read or program, the
// ecc probes carry it, and a layer's own cost is then a difference of
// microseconds and not of two noisy third-milliseconds.
func probeDeviceConfig(withECC bool) flashdev.Config {
	return flashdev.Config{
		DisableECC: !withECC,
		Chips:      1,
		Chip: nand.Config{
			Geometry:        nand.Geometry{Blocks: blocks, PagesPerBlock: pagesPerBlock, PageSize: pageSize, OOBSize: 128},
			Cell:            nand.MLC,
			Seed:            1,
			StrictOverwrite: true,
		},
		Latency: flashdev.DefaultLatencyModel(),
	}
}

// probeFTLConfig is the low-level format ipa.Open derives for the mode.
func probeFTLConfig(mode storage.WriteMode) ftl.Config {
	cover, tail := pageSize, 0
	if mode != storage.WriteTraditional {
		cover = pageSize - page.FooterSize - probeScheme.AreaSize(page.MetaSize)
		tail = page.FooterSize
	}
	return ftl.Config{
		FlashMode:        nand.ModePSLC,
		OverprovisionPct: 0.08,
		InPlaceMerge:     mode == storage.WriteIPASSD,
		EccCoverBytes:    cover,
		EccTailBytes:     tail,
	}
}

// fixture is the storage stack under the transaction layer, assembled as
// ipa.Open assembles it, with one heap file of probePages pages on Flash.
type fixture struct {
	store *storage.Manager
	pool  *buffer.Pool
	heap  *heap.File
	rids  []heap.RID // first row of every page
}

func newFixture(mode storage.WriteMode) (*fixture, error) {
	scheme := probeScheme
	if mode == storage.WriteTraditional {
		scheme = core.Disabled
	}
	dev, err := flashdev.New(probeDeviceConfig(false))
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(dev, probeFTLConfig(mode))
	if err != nil {
		return nil, err
	}
	regions := region.NewManager(region.Region{Name: "default", Scheme: scheme, FlashMode: nand.ModePSLC})
	regions.Assign(indexObject, region.Region{Name: "pk", Scheme: scheme, FlashMode: nand.ModePSLC, Kind: region.KindIndex})
	store, err := storage.New(f, storage.Config{Mode: mode, Regions: regions})
	if err != nil {
		return nil, err
	}
	pool, err := buffer.New(store, poolPages)
	if err != nil {
		return nil, err
	}
	fx := &fixture{store: store, pool: pool, heap: heap.New(store, pool, heapObject, tupleSize)}
	var row [tupleSize]byte
	for k := int64(0); len(fx.heap.PageIDs()) <= probePages; k++ {
		rowImage(row[:], k)
		rid, err := fx.heap.Insert(row[:])
		if err != nil {
			return nil, err
		}
		if rid.Slot == 0 {
			fx.rids = append(fx.rids, rid)
		}
	}
	fx.rids = fx.rids[:probePages]
	return fx, pool.FlushAll()
}

// storeProbe times StorePage of a page that took one 8-byte update since it
// was loaded, on the given write path, and the LoadPage calls around it.
func storeProbe(mode storage.WriteMode, timerNs float64) (storeNs, loadNs, loadDeltaNs float64, err error) {
	fx, err := newFixture(mode)
	if err != nil {
		return 0, 0, 0, err
	}
	store, load, loadDelta := stopwatch{timerNs: timerNs}, stopwatch{timerNs: timerNs}, stopwatch{timerNs: timerNs}
	buf := make([]byte, pageSize)
	patch := bytes.Repeat([]byte{0x5a}, patchLen)
	for _, rid := range fx.rids {
		var tr *core.Tracker
		load.time(func() { tr, err = fx.store.LoadPage(rid.PageID, buf) })
		if err != nil {
			return 0, 0, 0, err
		}
		pg, err := page.Wrap(buf)
		if err != nil {
			return 0, 0, 0, err
		}
		pg.SetRecorder(tr)
		if err := pg.UpdateTupleAt(0, patchOff, patch); err != nil {
			return 0, 0, 0, err
		}
		store.time(func() { err = fx.store.StorePage(rid.PageID, buf, tr) })
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for _, rid := range fx.rids {
		loadDelta.time(func() { _, err = fx.store.LoadPage(rid.PageID, buf) })
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return store.perCall(), load.perCall(), loadDelta.perCall(), nil
}

// runProbes runs every probe and returns its figure under the name of the
// per-layer metric it feeds.
func runProbes() (map[string]float64, error) {
	p := map[string]float64{}
	var fe firstErr
	timerNs := timerCost()
	p["harness.timer_ns"] = timerNs
	sw := func() stopwatch { return stopwatch{timerNs: timerNs} }

	area := probeScheme.AreaSize(page.MetaSize)
	img, pg, err := pageImage(0, area)
	if err != nil {
		return nil, err
	}
	delta, records, err := encodedDelta(pg)
	if err != nil {
		return nil, err
	}
	deltaOff := pg.DeltaAreaStart()
	cfg := probeFTLConfig(storage.WriteIPANative)
	buf := make([]byte, pageSize)
	patch := bytes.Repeat([]byte{0x5a}, patchLen)

	// ecc: one whole page, as a traditional program or read covers it.
	var code []byte
	p["ecc.encode_us"] = timeLoop(128, func(int) { code = ecc.Encode(img) }) / 1e3
	p["ecc.decode_us"] = timeLoop(128, func(int) {
		_, e := ecc.Decode(img, code)
		fe.set(e)
	}) / 1e3

	// nand: the raw array, no OOB layout and no clock.
	chip, err := nand.NewChip(probeDeviceConfig(false).Chip)
	if err != nil {
		return nil, err
	}
	oob := make([]byte, 128)
	at := func(i int) (int, int) { return i / pagesPerBlock, i % pagesPerBlock }
	p["nand.program_ns"] = timeLoop(1024, func(i int) {
		b, pp := at(i)
		fe.set(chip.Program(b, pp, img, oob))
	})
	p["nand.read_ns"] = timeLoop(1024, func(i int) {
		b, pp := at(i)
		fe.set(chip.ReadPage(b, pp, buf, oob))
	})

	// flashdev: OOB layout, mapping tag and the virtual clock around the
	// array; LSB pages only, as pSLC uses them.
	dev, err := flashdev.New(probeDeviceConfig(false))
	if err != nil {
		return nil, err
	}
	lsb := func(i int) (int, int) { return i / (pagesPerBlock / 2), i%(pagesPerBlock/2)*2 + 1 }
	p["flashdev.program_us"] = timeLoop(probePages, func(i int) {
		b, pp := lsb(i)
		fe.set(dev.ProgramPageTagged(b, pp, img, cfg.EccCoverBytes, cfg.EccTailBytes, i, uint64(i+1)))
	}) / 1e3
	p["flashdev.read_us"] = timeLoop(probePages, func(i int) {
		b, pp := lsb(i)
		fe.set(dev.ReadPage(b, pp, buf))
	}) / 1e3
	p["flashdev.program_delta_us"] = timeLoop(probePages, func(i int) {
		b, pp := lsb(i)
		_, e := dev.ProgramDelta(b, pp, deltaOff, delta)
		fe.set(e)
	}) / 1e3
	p["flashdev.scan_us"] = timeLoop(probePages, func(i int) {
		b, pp := lsb(i)
		_, e := dev.ScanPage(b, pp, buf)
		fe.set(e)
	}) / 1e3
	p["flashdev.erase_us"] = timeLoop(probePages/(pagesPerBlock/2), func(i int) {
		fe.set(dev.EraseBlock(i))
	}) / 1e3
	if fe.err != nil {
		return nil, fmt.Errorf("device probes: %w", fe.err)
	}

	// ftl: mapping and allocation around the device, no GC in reach.
	f, err := ftl.New(dev, cfg)
	if err != nil {
		return nil, err
	}
	const ftlPages = 1024
	p["ftl.write_page_us"] = timeLoop(ftlPages, func(i int) {
		_, e := f.WritePage(i, img)
		fe.set(e)
	}) / 1e3
	p["ftl.write_delta_us"] = timeLoop(ftlPages, func(i int) {
		fe.set(f.WriteDelta(i, deltaOff, delta))
	}) / 1e3
	p["ftl.read_page_us"] = timeLoop(ftlPages, func(i int) {
		fe.set(f.ReadPage(i, buf))
	}) / 1e3
	if fe.err != nil {
		return nil, fmt.Errorf("ftl probes: %w", fe.err)
	}
	// The rebuild scans a device written with ECC on, as a crashed one is:
	// a table of flash_rw's size, every page decoded once.
	scanned, err := flashdev.New(probeDeviceConfig(true))
	if err != nil {
		return nil, err
	}
	if f, err = ftl.New(scanned, cfg); err != nil {
		return nil, err
	}
	for i := 0; i < ftlPages; i++ {
		_, e := f.WritePage(i, img)
		fe.set(e)
	}
	p["ftl.rebuild_ms"] = timeLoop(1, func(int) {
		_, _, e := ftl.Rebuild(scanned, cfg)
		fe.set(e)
	}) / 1e6
	if fe.err != nil {
		return nil, fmt.Errorf("ftl probes: %w", fe.err)
	}

	// storage: one dirty eviction per write path, and the loads around it.
	if p["storage.store_native_us"], p["storage.load_us"], p["storage.load_delta_us"], err = storeProbe(storage.WriteIPANative, timerNs); err != nil {
		return nil, err
	}
	if p["storage.store_ssd_us"], _, _, err = storeProbe(storage.WriteIPASSD, timerNs); err != nil {
		return nil, err
	}
	if p["storage.store_trad_us"], _, _, err = storeProbe(storage.WriteTraditional, timerNs); err != nil {
		return nil, err
	}
	for _, k := range []string{"storage.store_native_us", "storage.store_ssd_us", "storage.store_trad_us", "storage.load_us", "storage.load_delta_us"} {
		p[k] /= 1e3
	}

	// core and page: change tracking and delta-record coding of one update.
	tr := core.NewTracker(probeScheme, page.MetaSize, pg.BodyEnd(), 0)
	zero := make([]byte, patchLen)
	p["core.tracker_write_ns"] = timeLoop(1<<17, func(i int) {
		if i%2 == 0 {
			tr.RecordWrite(page.HeaderSize+patchOff, zero, patch)
		} else {
			tr.RecordWrite(page.HeaderSize+patchOff, patch, zero)
		}
	})
	p["core.encode_area_ns"] = timeLoop(1<<15, func(int) {
		_, e := core.EncodeArea(records, probeScheme, page.MetaSize, 0)
		fe.set(e)
	})
	p["core.apply_records_ns"] = timeLoop(1<<17, func(int) { core.ApplyRecords(img, records) })
	slots := pg.SlotCount()
	p["page.updatetupleat_ns"] = timeLoop(1<<17, func(i int) { fe.set(pg.UpdateTupleAt(i%slots, patchOff, patch)) })

	// buffer, heap, index: a pool of 128 frames over 256 pages. The first
	// 64 pages are touched once and then hit; cycling over all of them
	// always misses.
	fx, err := newFixture(storage.WriteIPANative)
	if err != nil {
		return nil, err
	}
	hot := fx.rids[:64]
	for _, rid := range hot {
		if _, err := fx.heap.Get(rid); err != nil {
			return nil, err
		}
	}
	p["buffer.hit_ns"] = timeLoop(1<<17, func(i int) {
		h, e := fx.pool.Fetch(hot[i%len(hot)].PageID)
		if e == nil {
			h.Release()
		}
		fe.set(e)
	})
	p["heap.get_ns"] = timeLoop(1<<17, func(i int) {
		_, e := fx.heap.Get(hot[i%len(hot)])
		fe.set(e)
	})
	p["heap.updateat_ns"] = timeLoop(1<<17, func(i int) {
		fe.set(fx.heap.UpdateAt(hot[i%len(hot)], patchOff, patch))
	})
	if fe.err != nil {
		return nil, fmt.Errorf("core, page, buffer and heap probes: %w", fe.err)
	}
	if err := fx.pool.FlushAll(); err != nil {
		return nil, err
	}
	clean, dirty := sw(), sw()
	for round := 0; round < 2; round++ {
		for _, rid := range fx.rids {
			var h *buffer.Handle
			clean.time(func() { h, err = fx.pool.Fetch(rid.PageID) })
			if err != nil {
				return nil, err
			}
			h.Release()
		}
	}
	for round := 0; round < 2; round++ {
		for _, rid := range fx.rids {
			var h *buffer.Handle
			dirty.time(func() { h, err = fx.pool.Fetch(rid.PageID) })
			if err != nil {
				return nil, err
			}
			hp, err := page.Wrap(h.Data())
			if err != nil {
				return nil, err
			}
			hp.SetRecorder(h.Tracker())
			binary.LittleEndian.PutUint64(patch, uint64(round+1))
			if err := hp.UpdateTupleAt(1, patchOff, patch); err != nil {
				return nil, err
			}
			h.MarkDirty()
			h.Release()
		}
	}
	p["buffer.miss_clean_us"] = clean.perCall() / 1e3
	p["buffer.miss_dirty_us"] = dirty.perCall() / 1e3

	idx := index.New(fx.store, fx.pool, indexObject)
	p["index.set_us"] = timeLoop(4096, func(i int) { fe.set(idx.Set(int64(i), uint64(i))) }) / 1e3

	// btree: the in-memory key directory at flash_rw's size.
	tree := btree.New()
	p["btree.insert_ns"] = timeLoop(larger, func(i int) { tree.Insert(int64(fnv64(uint64(i))%larger), uint64(i)) })
	var sink uint64
	p["btree.get_ns"] = timeLoop(1<<18, func(i int) {
		v, _ := tree.Get(int64(fnv64(uint64(i)) % larger))
		sink += v
	})
	_ = sink

	// txn and wal: record locks, log appends and the commit flush of a
	// one-row transaction, the log truncated as a checkpoint would.
	log := wal.New()
	mgr := txn.NewManager(log)
	lock := sw()
	for i := 0; i < 2048; i++ {
		tx := mgr.Begin()
		lock.time(func() {
			for s := 0; s < 64; s++ {
				fe.set(tx.Lock(txn.LockKey{PageID: uint64(i), Slot: uint16(s)}))
			}
		})
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		log.Truncate(log.FlushedLSN())
	}
	p["txn.lock_ns"] = lock.perCall() / 64
	// One one-row transaction through the transaction layer, as ipa.Tx
	// drives it, and one snapshot read's share of it.
	versions, oracle := mgr.Versions(), mgr.Oracle()
	p["txn.commit_ns"] = timeLoop(1<<16, func(i int) {
		tx := mgr.Begin()
		key := txn.LockKey{PageID: uint64(i % 64), Slot: uint16(i % 59)}
		fe.set(tx.Lock(key))
		_, e := tx.LogUpdate(key.PageID, key.Slot, patchOff, zero, patch)
		fe.set(e)
		versions.OnWrite(key.PageID<<16|uint64(key.Slot), tx.ID(), img[:tupleSize], false)
		fe.set(tx.Commit())
		if i%1024 == 1023 {
			log.Truncate(log.FlushedLSN())
		}
	})
	p["txn.snapshot_ns"] = timeLoop(1<<17, func(i int) {
		snap := oracle.AcquireSnapshot()
		rid := uint64(i%64)<<16 | uint64(i%59)
		_, seq := versions.Resolve(rid, snap, 0)
		versions.Validate(rid, seq)
		oracle.ReleaseSnapshot(snap)
	})
	rec := wal.Record{Type: wal.RecUpdate, TxnID: 1, PageID: 1, Offset: patchOff, Old: zero, New: patch}
	appendNs, flush := 0.0, sw()
	const walRounds = 64
	for round := 0; round < walRounds; round++ {
		var lsn uint64
		appendNs += timeLoop(1024, func(int) { lsn = log.Append(rec) })
		for i := 0; i < 256; i++ {
			log.Append(rec)
			lsn = log.Append(wal.Record{Type: wal.RecCommit, TxnID: 1})
			flush.time(func() { fe.set(log.CommitFlush(lsn)) })
		}
		log.Truncate(lsn)
	}
	p["wal.append_ns"] = appendNs / walRounds
	p["wal.commit_flush_ns"] = flush.perCall()

	// proto: the frame codec on an UPDATE command and a GET reply.
	const frames = 1 << 14
	gen := newGenerator(1, resident, 0, true, frames)
	gen.fill(frames)
	var wire bytes.Buffer
	w := proto.NewWriter(&wire)
	p["proto.write_command_ns"] = timeLoop(frames, func(i int) { w.WriteCommand(gen.cmds[i]...) })
	if err := w.Flush(); err != nil {
		return nil, err
	}
	rd := proto.NewReader(&wire)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p["proto.read_command_ns"] = timeLoop(frames, func(int) {
		_, e := rd.ReadCommand()
		fe.set(e)
	})
	runtime.ReadMemStats(&m1)
	p["proto.allocs_per_command"] = float64(m1.Mallocs-m0.Mallocs) / frames
	for i := 0; i < frames; i++ {
		w.WriteBulk(img[:tupleSize])
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	p["proto.read_reply_ns"] = timeLoop(frames, func(int) {
		_, e := rd.ReadReply()
		fe.set(e)
	})
	if fe.err != nil {
		return nil, fmt.Errorf("index, txn, wal and proto probes: %w", fe.err)
	}

	// server: the session loop with no engine work behind it.
	rtt, pipe, err := pingProbe()
	if err != nil {
		return nil, err
	}
	p["server.ping_rtt_us"], p["server.ping_pipe_ops_per_s"] = rtt/1e3, pipe
	return p, nil
}

// pingProbe round-trips PING over loopback TCP at depth 1 and depth 32.
func pingProbe() (rttNs, pipeOpsPerS float64, err error) {
	db, err := ipa.Open(ipa.Config{PageSize: pageSize, Blocks: 16, PagesPerBlock: pagesPerBlock, BufferPoolPages: 16})
	if err != nil {
		return 0, 0, err
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return 0, 0, errors.Join(err, db.Close())
	}
	defer func() { err = errors.Join(err, srv.Shutdown(context.Background())) }()
	cl, err := ipaclient.Dial(srv.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	ping := [][]byte{[]byte("PING")}
	batch := make([][][]byte, 32)
	for i := range batch {
		batch[i] = ping
	}
	var fe firstErr
	for i := 0; i < 512; i++ { // warm the connection and the scheduler
		if err := cl.Ping(); err != nil {
			return 0, 0, err
		}
	}
	rttNs = timeLoop(4096, func(int) {
		_, e := cl.Do(ping...)
		fe.set(e)
	})
	batchNs := timeLoop(1024, func(int) {
		_, e := cl.Batch(batch)
		fe.set(e)
	})
	if fe.err != nil {
		return 0, 0, fmt.Errorf("ping: %w", fe.err)
	}
	return rttNs, float64(len(batch)) / batchNs * 1e9, nil
}
