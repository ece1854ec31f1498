// Package examples holds the engine's runnable walkthroughs as Example
// functions: go test runs each one and checks what it prints, and
// go test -run Example_quickstart -v ./examples shows it.
package examples_test

import (
	"fmt"
	"log"

	"ipa"
)

// Example_quickstart is the smallest end-to-end use of the engine: it opens
// a database on the simulated Flash device with In-Place Appends enabled,
// stores a table of counters, performs many small transactional updates and
// prints how the storage layer persisted them.
func Example_quickstart() {
	// A small device: 96 erase blocks of 32 pages of 4 KiB, operated in
	// pSLC mode with the paper's 2×4 In-Place Appends scheme and the
	// native write_delta command.
	db, err := ipa.Open(ipa.Config{
		PageSize:        4 * 1024,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 32,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer db.Close()

	counters, err := db.CreateTable("counters", 64)
	if err != nil {
		log.Fatalf("create table: %v", err)
	}

	// Load 5000 counter rows (64 bytes each) in one transaction: every write
	// goes through a Tx, so it is logged and survives a crash once committed.
	row := make([]byte, 64)
	load := db.Begin()
	for key := int64(0); key < 5000; key++ {
		if err := load.Insert(counters, key, row); err != nil {
			log.Fatalf("insert: %v", err)
		}
	}
	if err := load.Commit(); err != nil {
		log.Fatalf("commit load: %v", err)
	}
	db.ResetStats() // measure only the update phase below

	// Perform 20000 transactional 2-byte updates spread over all rows. The
	// buffer pool is far smaller than the table, so pages are evicted and
	// re-fetched constantly — exactly the situation where IPA avoids
	// out-of-place page writes.
	for i := 0; i < 20000; i++ {
		key := int64(i*37) % 5000
		tx := db.Begin()
		if err := tx.UpdateAt(counters, key, 8, []byte{byte(i), byte(i >> 8)}); err != nil {
			log.Fatalf("update: %v", err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatalf("commit: %v", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		log.Fatalf("flush: %v", err)
	}

	s := db.Stats()
	fmt.Println("quickstart: 20000 small updates on a 5000-row table")
	fmt.Printf("  write mode              : %s, scheme %s, flash %s\n", s.Mode, s.Scheme, s.FlashMode)
	fmt.Printf("  host writes             : %d full pages + %d write_delta commands\n", s.HostWrites, s.HostWriteDeltas)
	fmt.Printf("  in-place appends        : %d (%.0f%% of all writes)\n", s.InPlaceAppends, 100*s.InPlaceShare())
	fmt.Printf("  page invalidations      : %d\n", s.Invalidations)
	fmt.Printf("  GC migrations / erases  : %d / %d\n", s.GCMigrations, s.GCErases)
	fmt.Printf("  bytes sent to the device: %d (delta records only: %d)\n", s.HostBytesWritten, s.DeltaBytesWritten)
	fmt.Printf("  throughput              : %.0f transactions per virtual second\n", s.Throughput())
	// Output:
	// quickstart: 20000 small updates on a 5000-row table
	//   write mode              : ipa-native, scheme 2x4, flash pSLC
	//   host writes             : 3449 full pages + 6893 write_delta commands
	//   in-place appends        : 6893 (67% of all writes)
	//   page invalidations      : 3417
	//   GC migrations / erases  : 0 / 128
	//   bytes sent to the device: 14561363 (delta records only: 434259)
	//   throughput              : 3088 transactions per virtual second
}
