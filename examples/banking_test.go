package examples_test

import (
	"fmt"
	"log"

	"ipa"
	"ipa/internal/workload"
)

func runBank(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Stats {
	db, err := ipa.Open(ipa.Config{
		PageSize:        4 * 1024,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 48,
		WriteMode:       mode,
		Scheme:          scheme,
		FlashMode:       flash,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer db.Close()

	bank := workload.NewTPCB(workload.TPCBConfig{Branches: 1, AccountsPerBranch: 10000})
	if err := bank.Load(db); err != nil {
		log.Fatalf("load: %v", err)
	}
	db.ResetStats()
	// Both write paths commit the same 2374 transactions (the paper ran
	// for two hours on real hardware; the shape of the comparison is the
	// same), so their host writes and GC work compare like for like.
	if _, err := workload.Run(db, bank, workload.RunOptions{MaxOps: 2374}); err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatalf("flush: %v", err)
	}
	return db.Stats()
}

// Example_banking runs the TPC-B banking workload — the workload behind
// Table 1 of the paper — twice on identical simulated Flash devices: once
// with the traditional out-of-place write path and once with In-Place
// Appends ([2×4] scheme, pSLC mode), and prints the comparison.
func Example_banking() {
	fmt.Println("banking: TPC-B on simulated Flash, traditional vs In-Place Appends")
	base := runBank(ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)
	ipaStats := runBank(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)

	rel := func(ipaV, baseV float64) string {
		if baseV == 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+6.0f%%", 100*(ipaV-baseV)/baseV)
	}
	fmt.Printf("%-32s %14s %14s %8s\n", "", "traditional", "IPA 2x4 pSLC", "change")
	fmt.Printf("%-32s %14d %14d %8s\n", "committed transactions",
		base.CommittedTxns, ipaStats.CommittedTxns, rel(float64(ipaStats.CommittedTxns), float64(base.CommittedTxns)))
	fmt.Printf("%-32s %14.0f %14.0f %8s\n", "throughput (tps)",
		base.Throughput(), ipaStats.Throughput(), rel(ipaStats.Throughput(), base.Throughput()))
	fmt.Printf("%-32s %14d %14d %8s\n", "host writes",
		base.TotalHostWrites(), ipaStats.TotalHostWrites(), rel(float64(ipaStats.TotalHostWrites()), float64(base.TotalHostWrites())))
	fmt.Printf("%-32s %14d %14d\n", "in-place appends", base.InPlaceAppends, ipaStats.InPlaceAppends)
	fmt.Printf("%-32s %14d %14d %8s\n", "page invalidations",
		base.Invalidations, ipaStats.Invalidations, rel(float64(ipaStats.Invalidations), float64(base.Invalidations)))
	fmt.Printf("%-32s %14.4f %14.4f %8s\n", "GC migrations per host write",
		base.MigrationsPerHostWrite(), ipaStats.MigrationsPerHostWrite(), rel(ipaStats.MigrationsPerHostWrite(), base.MigrationsPerHostWrite()))
	fmt.Printf("%-32s %14.4f %14.4f %8s\n", "GC erases per host write",
		base.ErasesPerHostWrite(), ipaStats.ErasesPerHostWrite(), rel(ipaStats.ErasesPerHostWrite(), base.ErasesPerHostWrite()))
	if b, i := base.ErasesPerHostWrite(), ipaStats.ErasesPerHostWrite(); b > 0 && i > 0 {
		fmt.Printf("%-32s %14s %13.2fx\n", "relative Flash lifetime", "1.00x", b/i)
	}
	// Output:
	// banking: TPC-B on simulated Flash, traditional vs In-Place Appends
	//                                     traditional   IPA 2x4 pSLC   change
	// committed transactions                     2374           2374      +0%
	// throughput (tps)                           1163           2128     +83%
	// host writes                                2040           2058      +1%
	// in-place appends                              0           1401
	// page invalidations                         1995            612     -69%
	// GC migrations per host write             0.0000         0.0000      n/a
	// GC erases per host write                 0.0000         0.0000      n/a
}
