package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ipa"
	"ipa/internal/server"
)

// TestDrivesServerWithoutErrors runs ipaload against a live server on a
// loopback port: YCSB D (inserts racing read-latest) and the default
// -updates mix both complete their sweep with operations and no errors.
func TestDrivesServerWithoutErrors(t *testing.T) {
	db, err := ipa.Open(ipa.Config{PageSize: 4096, Blocks: 64, PagesPerBlock: 32, BufferPoolPages: 64,
		WriteMode: ipa.IPANativeFlash, Scheme: ipa.Scheme{N: 2, M: 4}, FlashMode: ipa.PSLC})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	for _, args := range [][]string{
		{"-ycsb", "D", "-table", "ycsbd"},
		{"-table", "mix"},
	} {
		args = append(args, "-addr", srv.Addr().String(), "-conns", "1,3", "-pipeline", "4",
			"-duration", "100ms", "-keys", "200", "-tuple", "64", "-json")
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("ipaload %v: exit %d: %s", args, code, stderr.String())
		}
		var rep report
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatalf("ipaload %v: report: %v\n%s", args, err, stdout.String())
		}
		if len(rep.Points) != 2 {
			t.Fatalf("ipaload %v: %d sweep points, want 2", args, len(rep.Points))
		}
		for _, p := range rep.Points {
			if p.Ops == 0 || p.Errors != 0 {
				t.Errorf("ipaload %v: %d connections ran %d ops with %d errors", args, p.Conns, p.Ops, p.Errors)
			}
		}
	}
}
