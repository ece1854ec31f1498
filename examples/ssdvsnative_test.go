package examples_test

import (
	"fmt"
	"log"

	"ipa"
	"ipa/internal/workload"
)

func runGraph(mode ipa.WriteMode) ipa.Stats {
	db, err := ipa.Open(ipa.Config{
		PageSize:        4 * 1024,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 48,
		WriteMode:       mode,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer db.Close()
	w := workload.NewLinkBench(workload.LinkBenchConfig{Nodes: 10000, LinksPerNode: 3})
	if err := w.Load(db); err != nil {
		log.Fatalf("load: %v", err)
	}
	db.ResetStats()
	if _, err := workload.Run(db, w, workload.RunOptions{MaxOps: 15000}); err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatalf("flush: %v", err)
	}
	return db.Stats()
}

// Example_ssdVsNative contrasts the two IPA deployments demonstrated in the
// paper (demo scenarios 2 and 3): IPA over the block-device interface of a
// conventional SSD, where whole pages travel to the device and the FTL
// merges them in place, versus IPA on native Flash (NoFTL), where only the
// delta records travel via the write_delta command. Both eliminate the same
// garbage-collection work; the native path additionally removes most of the
// DBMS write amplification on the host interface.
func Example_ssdVsNative() {
	fmt.Println("ssdvsnative: social-graph workload, IPA on a conventional SSD vs native Flash")
	baseline := runGraph(ipa.Traditional)
	ssd := runGraph(ipa.IPAConventionalSSD)
	native := runGraph(ipa.IPANativeFlash)

	fmt.Printf("%-34s %16s %16s %16s\n", "", "traditional", "IPA block-device", "IPA write_delta")
	fmt.Printf("%-34s %16d %16d %16d\n", "host writes (pages / deltas)",
		baseline.TotalHostWrites(), ssd.TotalHostWrites(), native.TotalHostWrites())
	fmt.Printf("%-34s %16d %16d %16d\n", "bytes host -> device",
		baseline.HostBytesWritten, ssd.HostBytesWritten, native.HostBytesWritten)
	fmt.Printf("%-34s %16d %16d %16d\n", "in-place appends",
		baseline.InPlaceAppends, ssd.InPlaceAppends, native.InPlaceAppends)
	fmt.Printf("%-34s %16d %16d %16d\n", "page invalidations",
		baseline.Invalidations, ssd.Invalidations, native.Invalidations)
	fmt.Printf("%-34s %16d %16d %16d\n", "GC erases",
		baseline.GCErases, ssd.GCErases, native.GCErases)
	fmt.Printf("%-34s %16.0f %16.0f %16.0f\n", "throughput (tps)",
		baseline.Throughput(), ssd.Throughput(), native.Throughput())
	fmt.Printf("%-34s %16.1fx %15.1fx %15.1fx\n", "DBMS write amplification",
		baseline.DBMSWriteAmplification(), ssd.DBMSWriteAmplification(), native.DBMSWriteAmplification())
	fmt.Println("\nBoth IPA variants avoid the same page invalidations and GC work; only the")
	fmt.Println("native write_delta path also removes the host-interface write amplification.")
	// Output:
	// ssdvsnative: social-graph workload, IPA on a conventional SSD vs native Flash
	//                                         traditional IPA block-device  IPA write_delta
	// host writes (pages / deltas)                   2384             2433             2433
	// bytes host -> device                        9764864          9965568          3704448
	// in-place appends                                  0             1566             1566
	// page invalidations                             2367              850              850
	// GC erases                                       212               52               52
	// throughput (tps)                               3952             5471             5509
	// DBMS write amplification                      161.6x           164.7x            61.2x
	//
	// Both IPA variants avoid the same page invalidations and GC work; only the
	// native write_delta path also removes the host-interface write amplification.
}
