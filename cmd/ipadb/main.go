// Command ipadb is a small shell around the ipa storage engine, in the
// spirit of the demonstration GUI of the paper: it lets you create
// tables, insert and update rows, and watch how the Flash device reacts
// (in-place appends vs out-of-place writes, GC work, virtual time).
//
// Usage:
//
//	ipadb [-json] [-mode traditional|ssd|native] [-n 2] [-m 4] [-flash pslc|oddmlc|mlc]
//	ipadb watch [-url http://127.0.0.1:6390] [-interval 1s] [-n 0] [-plain]
//
// Under -json every command answers with one uniform envelope per line:
//
//	{"ok":true,"cmd":"get","elapsed_ms":0.123,"data":{...}}
//	{"ok":false,"cmd":"get","elapsed_ms":0.051,"error":{"code":"NOTFOUND","msg":"..."}}
//
// Error codes are the wire codes of docs/DESIGN_SERVER.md — the same
// table ipaserver puts on the wire, so scripted callers handle one code
// set regardless of transport. The envelope schema is specified in
// docs/DESIGN_OPS.md and pinned by the golden tests in main_test.go.
//
// The watch subcommand polls a running ipaserver's /stats.json and
// renders a refreshing terminal view of the ops gauges: lifetime burn,
// time to death, windowed rates, per-chip wear and command latencies.
//
// Shell commands (one per line on stdin):
//
//	create <table> <tupleSize>
//	insert <table> <key> <text>
//	get <table> <key>
//	update <table> <key> <offset> <text>
//	delete <table> <key>
//	scan <table> <from> <to>
//	index <table> <name> <offset>     create a secondary index over the
//	                                  little-endian int64 at the offset
//	indexes <table>                   list the table's secondary indexes
//	get-by <table> <index> <key>      look tuples up by secondary key
//	tables
//	stats
//	ops                               derived gauges: burn rate, windowed rates
//	flush
//	checkpoint                        force a fuzzy checkpoint
//	help
//	quit
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ipa"
	"ipa/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(watchMain(os.Args[2:]))
	}
	var (
		jsonOut = flag.Bool("json", false, "answer every command with a JSON envelope")
		mode    = flag.String("mode", "native", "write mode: traditional, ssd or native")
		n       = flag.Int("n", 2, "IPA scheme parameter N")
		m       = flag.Int("m", 4, "IPA scheme parameter M")
		flash   = flag.String("flash", "pslc", "flash mode: pslc, oddmlc or mlc")
	)
	flag.Parse()

	cfg, err := withModes(ipa.Config{
		PageSize:        8 * 1024,
		Blocks:          128,
		PagesPerBlock:   64,
		BufferPoolPages: 128,
		Scheme:          ipa.Scheme{N: *n, M: *m},
		Analytic:        true,
	}, *mode, *flash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipadb: %v\n", err)
		os.Exit(2)
	}

	db, err := ipa.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipadb: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	sh := &shell{db: db, out: os.Stdout, jsonOut: *jsonOut}
	if !sh.jsonOut {
		fmt.Printf("ipadb: %s write path, scheme %s, %s flash — type 'help' for commands\n",
			cfg.WriteMode, cfg.Scheme, cfg.FlashMode)
	}
	scanner := bufio.NewScanner(os.Stdin)
	for {
		if !sh.jsonOut {
			fmt.Print("> ")
		}
		if !scanner.Scan() {
			if !sh.jsonOut {
				fmt.Println()
			}
			return
		}
		if quit := sh.run(scanner.Text()); quit {
			return
		}
	}
}

// withModes sets cfg's write and flash modes from the -mode and -flash
// flags (the traditional write path runs without a scheme). An unknown
// name is an error that lists the accepted ones.
func withModes(cfg ipa.Config, mode, flash string) (ipa.Config, error) {
	writeModes := map[string]ipa.WriteMode{"traditional": ipa.Traditional, "ssd": ipa.IPAConventionalSSD, "native": ipa.IPANativeFlash}
	flashModes := map[string]ipa.FlashMode{"pslc": ipa.PSLC, "oddmlc": ipa.OddMLC, "mlc": ipa.MLCFull}
	var ok bool
	if cfg.WriteMode, ok = writeModes[mode]; !ok {
		return cfg, fmt.Errorf("unknown -mode %q (want traditional, ssd or native)", mode)
	}
	if cfg.FlashMode, ok = flashModes[flash]; !ok {
		return cfg, fmt.Errorf("unknown -flash %q (want pslc, oddmlc or mlc)", flash)
	}
	if cfg.WriteMode == ipa.Traditional {
		cfg.Scheme = ipa.Scheme{}
	}
	return cfg, nil
}

// envelope is the uniform -json reply: exactly one per command, one per
// line. The schema is part of docs/DESIGN_OPS.md.
type envelope struct {
	OK        bool      `json:"ok"`
	Cmd       string    `json:"cmd"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Data      any       `json:"data,omitempty"`
	Error     *envError `json:"error,omitempty"`
}

// envError carries the stable wire code and the human message.
type envError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// cliError is a shell-level failure (bad usage, unknown command, missing
// table) already tagged with its wire code.
type cliError struct {
	code string
	msg  string
}

func (e *cliError) Error() string { return e.msg }

func clif(code, format string, a ...any) error {
	return &cliError{code: code, msg: fmt.Sprintf(format, a...)}
}

// codeOf maps any shell error onto its wire code: shell-level errors
// carry their own, engine errors go through the server's table.
func codeOf(err error) string {
	var ce *cliError
	if errors.As(err, &ce) {
		return ce.code
	}
	return server.ErrCode(err)
}

// shell executes commands against an embedded engine and renders every
// result either as prose or as a JSON envelope.
type shell struct {
	db      *ipa.DB
	out     io.Writer
	jsonOut bool

	// now stamps envelope latencies; tests replace it for stable goldens.
	now func() time.Time
}

func (sh *shell) clock() time.Time {
	if sh.now != nil {
		return sh.now()
	}
	return time.Now()
}

// run executes one input line and reports whether the shell should exit.
func (sh *shell) run(line string) (quit bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	start := sh.clock()
	data, err := sh.execute(cmd, args)
	elapsed := sh.clock().Sub(start)

	if sh.jsonOut {
		env := envelope{OK: err == nil, Cmd: cmd, ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
		if err != nil {
			env.Error = &envError{Code: codeOf(err), Msg: err.Error()}
		} else {
			env.Data = data
		}
		out, merr := json.Marshal(env)
		if merr != nil {
			// Marshal failure of a data payload is a bug; still answer in
			// envelope form so scripted callers never see a bare line.
			env.Data = nil
			env.OK = false
			env.Error = &envError{Code: server.CodeErr, Msg: merr.Error()}
			out, _ = json.Marshal(env)
		}
		fmt.Fprintln(sh.out, string(out))
	} else if err != nil {
		fmt.Fprintf(sh.out, "error: %s %v\n", codeOf(err), err)
	} else {
		sh.render(cmd, data)
	}
	return cmd == "quit" || cmd == "exit"
}

// Data payload shapes. Every command returns exactly one of these (or an
// engine-defined document for stats/ops/checkpoint); main_test.go pins
// each with a golden envelope.
type createResult struct {
	Table     string `json:"table"`
	TupleSize int    `json:"tuple_size"`
}
type rowKeyResult struct {
	Table string `json:"table"`
	Key   int64  `json:"key"`
}
type getResult struct {
	Table string `json:"table"`
	Key   int64  `json:"key"`
	Value string `json:"value"`
}
type updateResult struct {
	Table  string `json:"table"`
	Key    int64  `json:"key"`
	Offset int    `json:"offset"`
}
type scanRow struct {
	Key   int64  `json:"key"`
	Value string `json:"value"`
}
type scanResult struct {
	Table string    `json:"table"`
	From  int64     `json:"from"`
	To    int64     `json:"to"`
	Rows  []scanRow `json:"rows"`
	Count int       `json:"count"`
}
type indexResult struct {
	Table  string `json:"table"`
	Index  string `json:"index"`
	Offset int    `json:"offset"`
}
type indexInfo struct {
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Keys    int    `json:"keys"`
	Pages   int    `json:"pages"`
}
type indexesResult struct {
	Table     string      `json:"table"`
	Secondary []indexInfo `json:"secondary"`
}
type getByResult struct {
	Table string   `json:"table"`
	Index string   `json:"index"`
	Key   int64    `json:"key"`
	Rows  []string `json:"rows"`
	Count int      `json:"count"`
}
type tableInfo struct {
	Name  string `json:"name"`
	Rows  uint64 `json:"rows"`
	Pages int    `json:"pages"`
}
type tablesResult struct {
	Tables []tableInfo `json:"tables"`
}
type flushResult struct {
	Flushed bool `json:"flushed"`
}
type helpResult struct {
	Commands []string `json:"commands"`
}

// shellCommands lists every shell verb, for help and the golden tests.
var shellCommands = []string{
	"create", "insert", "get", "update", "delete", "scan",
	"index", "indexes", "get-by", "tables", "stats", "ops",
	"flush", "checkpoint", "help", "quit",
}

// execute runs one command and returns its data payload.
func (sh *shell) execute(cmd string, args []string) (any, error) {
	db := sh.db
	switch cmd {
	case "quit", "exit":
		return nil, nil
	case "help":
		return helpResult{Commands: shellCommands}, nil
	case "create":
		if len(args) != 2 {
			return nil, clif(server.CodeArgs, "usage: create <table> <tupleSize>")
		}
		size, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, clif(server.CodeArgs, "bad tuple size: %v", err)
		}
		if _, err := db.CreateTable(args[0], size); err != nil {
			return nil, err
		}
		return createResult{Table: args[0], TupleSize: size}, nil
	case "insert", "update", "get", "delete", "scan":
		return sh.tableCommand(cmd, args)
	case "index":
		if len(args) != 3 {
			return nil, clif(server.CodeArgs, "usage: index <table> <name> <offset>")
		}
		table, err := sh.table(args[0])
		if err != nil {
			return nil, err
		}
		off, err := strconv.Atoi(args[2])
		if err != nil {
			return nil, clif(server.CodeArgs, "bad offset: %v", err)
		}
		if off < 0 || off+8 > table.TupleSize() {
			return nil, clif(server.CodeArgs,
				"offset %d outside the %d-byte tuples of %s (need offset+8 <= size)",
				off, table.TupleSize(), args[0])
		}
		if _, err := table.CreateSecondaryIndex(args[1], ipa.Int64Field(off)); err != nil {
			return nil, err
		}
		return indexResult{Table: args[0], Index: args[1], Offset: off}, nil
	case "indexes":
		if len(args) != 1 {
			return nil, clif(server.CodeArgs, "usage: indexes <table>")
		}
		table, err := sh.table(args[0])
		if err != nil {
			return nil, err
		}
		res := indexesResult{Table: args[0], Secondary: []indexInfo{}}
		for _, name := range table.SecondaryIndexes() {
			s, _ := table.SecondaryIndex(name)
			res.Secondary = append(res.Secondary, indexInfo{
				Name: name, Entries: s.Len(), Keys: s.Keys(), Pages: s.Pages(),
			})
		}
		return res, nil
	case "get-by":
		if len(args) != 3 {
			return nil, clif(server.CodeArgs, "usage: get-by <table> <index> <key>")
		}
		table, err := sh.table(args[0])
		if err != nil {
			return nil, err
		}
		key, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return nil, clif(server.CodeArgs, "bad key: %v", err)
		}
		rows, err := table.GetBySecondary(args[1], key)
		if err != nil {
			return nil, err
		}
		res := getByResult{Table: args[0], Index: args[1], Key: key, Rows: []string{}}
		for _, row := range rows {
			res.Rows = append(res.Rows, strings.TrimRight(string(row), "\x00"))
		}
		res.Count = len(res.Rows)
		return res, nil
	case "tables":
		res := tablesResult{Tables: []tableInfo{}}
		for _, name := range db.Tables() {
			t, _ := db.Table(name)
			res.Tables = append(res.Tables, tableInfo{Name: name, Rows: t.Count(), Pages: t.Pages()})
		}
		return res, nil
	case "stats":
		return db.Stats(), nil
	case "ops":
		return db.Ops(), nil
	case "flush":
		if err := db.FlushAll(); err != nil {
			return nil, err
		}
		return flushResult{Flushed: true}, nil
	case "checkpoint":
		res, err := db.Checkpoint()
		if err != nil {
			return nil, err
		}
		return res, nil
	default:
		return nil, clif(server.CodeUnknown, "unknown command %q (try 'help')", cmd)
	}
}

// table resolves a table name with the NOTABLE wire code on failure.
func (sh *shell) table(name string) (*ipa.Table, error) {
	t, ok := sh.db.Table(name)
	if !ok {
		return nil, clif(server.CodeNoTable, "no such table %q", name)
	}
	return t, nil
}

func (sh *shell) tableCommand(cmd string, args []string) (any, error) {
	if len(args) < 2 {
		return nil, clif(server.CodeArgs, "usage: %s <table> <key> ...", cmd)
	}
	table, err := sh.table(args[0])
	if err != nil {
		return nil, err
	}
	key, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return nil, clif(server.CodeArgs, "bad key: %v", err)
	}
	db := sh.db
	switch cmd {
	case "insert":
		if len(args) < 3 {
			return nil, clif(server.CodeArgs, "usage: insert <table> <key> <text>")
		}
		row := make([]byte, table.TupleSize())
		copy(row, strings.Join(args[2:], " "))
		if err := autocommit(db, func(tx *ipa.Tx) error { return tx.Insert(table, key, row) }); err != nil {
			return nil, err
		}
		return rowKeyResult{Table: args[0], Key: key}, nil
	case "get":
		row, err := table.Get(key)
		if err != nil {
			return nil, err
		}
		return getResult{Table: args[0], Key: key, Value: strings.TrimRight(string(row), "\x00")}, nil
	case "update":
		if len(args) < 4 {
			return nil, clif(server.CodeArgs, "usage: update <table> <key> <offset> <text>")
		}
		off, err := strconv.Atoi(args[2])
		if err != nil {
			return nil, clif(server.CodeArgs, "bad offset: %v", err)
		}
		patch := []byte(strings.Join(args[3:], " "))
		if err := autocommit(db, func(tx *ipa.Tx) error { return tx.UpdateAt(table, key, off, patch) }); err != nil {
			return nil, err
		}
		return updateResult{Table: args[0], Key: key, Offset: off}, nil
	case "delete":
		if err := autocommit(db, func(tx *ipa.Tx) error { return tx.Delete(table, key) }); err != nil {
			return nil, err
		}
		return rowKeyResult{Table: args[0], Key: key}, nil
	case "scan":
		if len(args) != 3 {
			return nil, clif(server.CodeArgs, "usage: scan <table> <from> <to>")
		}
		to, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return nil, clif(server.CodeArgs, "bad upper bound: %v", err)
		}
		res := scanResult{Table: args[0], From: key, To: to, Rows: []scanRow{}}
		if err := table.ScanRange(key, to, func(k int64, row []byte) bool {
			res.Rows = append(res.Rows, scanRow{Key: k, Value: strings.TrimRight(string(row), "\x00")})
			return true
		}); err != nil {
			return nil, err
		}
		res.Count = len(res.Rows)
		return res, nil
	}
	return nil, clif(server.CodeUnknown, "unknown command %q", cmd)
}

// autocommit runs one write in its own transaction: committed on success,
// rolled back (and the write's error returned) on failure.
func autocommit(db *ipa.DB, write func(tx *ipa.Tx) error) error {
	tx := db.Begin()
	if err := write(tx); err != nil {
		_ = tx.Abort() // the write's error is the one worth reporting
		return err
	}
	return tx.Commit()
}

// render prints one successful result as prose (the no -json view).
func (sh *shell) render(cmd string, data any) {
	w := sh.out
	switch d := data.(type) {
	case createResult:
		fmt.Fprintf(w, "table %s created (%d-byte tuples)\n", d.Table, d.TupleSize)
	case rowKeyResult:
		fmt.Fprintln(w, "ok")
	case updateResult:
		fmt.Fprintln(w, "ok")
	case getResult:
		fmt.Fprintf(w, "%q\n", d.Value)
	case scanResult:
		for _, r := range d.Rows {
			fmt.Fprintf(w, "%12d  %q\n", r.Key, r.Value)
		}
		fmt.Fprintf(w, "(%d rows in [%d,%d))\n", d.Count, d.From, d.To)
	case indexResult:
		fmt.Fprintf(w, "secondary index %s.%s created (int64 at offset %d)\n", d.Table, d.Index, d.Offset)
	case indexesResult:
		fmt.Fprintf(w, "  %-24s %8s\n", d.Table+".pk", "(primary)")
		for _, s := range d.Secondary {
			fmt.Fprintf(w, "  %-24s %8d entries %6d keys %6d pages\n",
				d.Table+"."+s.Name, s.Entries, s.Keys, s.Pages)
		}
	case getByResult:
		for _, row := range d.Rows {
			fmt.Fprintf(w, "%q\n", row)
		}
		fmt.Fprintf(w, "(%d rows under %s.%s = %d)\n", d.Count, d.Table, d.Index, d.Key)
	case tablesResult:
		for _, t := range d.Tables {
			fmt.Fprintf(w, "  %-24s %8d rows %6d pages\n", t.Name, t.Rows, t.Pages)
		}
	case ipa.Stats:
		fmt.Fprint(w, d)
	case ipa.OpsStats:
		renderOps(w, d)
	case flushResult:
		fmt.Fprintln(w, "all dirty pages flushed")
	case helpResult:
		fmt.Fprintf(w, "commands: %s\n", strings.Join(d.Commands, " | "))
	case nil:
		// quit
	default:
		out, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintf(w, "error: %s %v\n", server.CodeErr, err)
			return
		}
		fmt.Fprintln(w, string(out))
	}
}

// renderOps prints the derived gauges; shared with `ipadb watch`.
func renderOps(w io.Writer, o ipa.OpsStats) {
	fmt.Fprintf(w, "device life burned   %8.4f%%  (%d of %d erases)\n",
		o.LifeBurned*100, o.ErasesConsumed, o.EraseBudget)
	if o.TimeToDeath > 0 {
		fmt.Fprintf(w, "time to death        %8s   (virtual, at current erase rate)\n", o.TimeToDeath.Round(time.Second))
	} else {
		fmt.Fprintf(w, "time to death        %8s\n", "∞")
	}
	fmt.Fprintf(w, "erases avoided       %8d   (vs out-of-place baseline %d)\n", o.ErasesAvoided, o.BaselineErases)
	fmt.Fprintf(w, "window               %8s   virtual (%d samples)\n", o.WindowVirtual.Round(time.Millisecond), o.Samples)
	fmt.Fprintf(w, "  tps                %10.1f/s\n", o.WindowTPS)
	fmt.Fprintf(w, "  evictions          %10.1f/s\n", o.WindowEvictionsPerSec)
	fmt.Fprintf(w, "  erase rate         %10.3f/s\n", o.WindowEraseRatePerSec)
	fmt.Fprintf(w, "  in-place share     %9.1f%%\n", o.WindowInPlaceShare*100)
}
