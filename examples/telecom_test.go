package examples_test

import (
	"fmt"
	"log"

	"ipa"
	"ipa/internal/workload"
)

// Example_telecom runs the TATP telecom workload with In-Place Appends
// applied selectively: the update-dominated subscriber and facility tables
// use the [2×4] scheme, while the insert-only call-forwarding table opts
// out (NoFTL regions). It shows why the paper's update-intensive read-mostly
// workloads profit so much from IPA: the few writes that happen are tiny
// and almost always appendable.
func Example_telecom() {
	db, err := ipa.Open(ipa.Config{
		PageSize:        4 * 1024,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 64,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.OddMLC, // full capacity, appends on LSB pages only
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer db.Close()

	telecom := workload.NewTATP(workload.TATPConfig{Subscribers: 20000})
	if err := telecom.Load(db); err != nil {
		log.Fatalf("load: %v", err)
	}
	db.ResetStats()
	res, err := workload.Run(db, telecom, workload.RunOptions{MaxOps: 20000})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatalf("flush: %v", err)
	}

	s := db.Stats()
	fmt.Println("telecom: TATP with selective In-Place Appends (odd-MLC mode)")
	fmt.Printf("  committed transactions     : %d\n", res.Committed)
	fmt.Printf("  host page reads            : %d\n", s.HostReads)
	fmt.Printf("  host writes                : %d (read/write ratio %.1f : 1)\n",
		s.TotalHostWrites(), float64(s.HostReads)/float64(max(1, s.TotalHostWrites())))
	fmt.Printf("  net bytes changed/eviction : %.1f\n",
		float64(s.NetChangedBytes)/float64(max(1, s.DirtyEvictions)))
	fmt.Printf("  evictions changing <100 B  : %.0f%%\n", 100*s.SmallEvictionShare())
	fmt.Printf("  in-place appends           : %d (%.0f%% of writes)\n", s.InPlaceAppends, 100*s.InPlaceShare())
	fmt.Printf("  bytes transferred          : %d (of which delta records: %d)\n", s.HostBytesWritten, s.DeltaBytesWritten)
	fmt.Printf("  GC erases                  : %d\n", s.GCErases)
	fmt.Printf("  throughput                 : %.0f tps (virtual time %s)\n", s.Throughput(), s.Elapsed)

	fmt.Println("\n  tables and their regions:")
	for _, name := range db.Tables() {
		t, _ := db.Table(name)
		fmt.Printf("    %-26s %8d rows, %5d pages\n", name, t.Count(), t.Pages())
	}
	// Output:
	// telecom: TATP with selective In-Place Appends (odd-MLC mode)
	//   committed transactions     : 20000
	//   host page reads            : 18150
	//   host writes                : 3670 (read/write ratio 4.9 : 1)
	//   net bytes changed/eviction : 11.5
	//   evictions changing <100 B  : 99%
	//   in-place appends           : 1699 (46% of writes)
	//   bytes transferred          : 8180568 (of which delta records: 107352)
	//   GC erases                  : 406
	//   throughput                 : 1201 tps (virtual time 16.618768904s)
	//
	//   tables and their regions:
	//     tatp_access_info              50002 rows,   820 pages
	//     tatp_call_forwarding             11 rows,     8 pages
	//     tatp_special_facility         49955 rows,   819 pages
	//     tatp_subscriber               20000 rows,   541 pages
}
