package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ipa"
	"ipa/internal/buffer"
	"ipa/internal/ftl"
	"ipa/internal/proto"
	"ipa/internal/stat"
	"ipa/internal/storage"
	"ipa/internal/txn"
)

// Wire error codes. Every reply-position error the server can emit
// carries exactly one of these as its first token; docs/DESIGN_SERVER.md
// documents each (spec_test.go enforces that).
const (
	codeErr      = "ERR"      // internal or unclassified engine error
	codeProto    = "PROTO"    // malformed frame; the connection closes after this reply
	codeUnknown  = "UNKNOWN"  // unknown command name
	codeArgs     = "ARGS"     // wrong argument count or unparsable argument
	codeNoTable  = "NOTABLE"  // named table does not exist
	codeExists   = "EXISTS"   // table or index name already taken
	codeNotFound = "NOTFOUND" // primary key not present
	codeDupKey   = "DUPKEY"   // primary key already present
	codeConflict = "CONFLICT" // record lock conflict; abort and retry
	codeNoIndex  = "NOINDEX"  // named secondary index does not exist
	codeNoTxn    = "NOTXN"    // COMMIT/ABORT without an open transaction
	codeInTxn    = "INTXN"    // BEGIN while a transaction is already open
	codeFinished = "FINISHED" // operation on a finished transaction
	codeClosed   = "CLOSED"   // engine closed (server shutting down)
	codeBusy     = "BUSY"     // every buffer frame stayed pinned; retry
	codeFull     = "FULL"     // the device has no room for the write
)

// wireCodes lists every error code for the spec drift test.
var wireCodes = []string{
	codeErr, codeProto, codeUnknown, codeArgs, codeNoTable, codeExists,
	codeNotFound, codeDupKey, codeConflict, codeNoIndex, codeNoTxn,
	codeInTxn, codeFinished, codeClosed, codeBusy, codeFull,
}

// errCode maps an engine error onto its stable wire code. The mapping is
// total: anything unrecognised is ERR, every exported engine sentinel has
// its own code.
func errCode(err error) string {
	switch {
	case errors.Is(err, ipa.ErrClosed):
		return codeClosed
	case errors.Is(err, ipa.ErrKeyNotFound):
		return codeNotFound
	case errors.Is(err, ipa.ErrDuplicateKey):
		return codeDupKey
	case errors.Is(err, ipa.ErrConflict):
		return codeConflict
	case errors.Is(err, ipa.ErrIndexNotFound):
		return codeNoIndex
	case errors.Is(err, ipa.ErrTableExists), errors.Is(err, ipa.ErrIndexExists):
		return codeExists
	case errors.Is(err, txn.ErrFinished):
		return codeFinished
	case errors.Is(err, buffer.ErrNoFrames):
		return codeBusy
	case errors.Is(err, storage.ErrCapacity), errors.Is(err, ftl.ErrDeviceFull):
		return codeFull
	default:
		return codeErr
	}
}

// command is one dispatch-table entry.
type command struct {
	id    int    // registration order: the command's Wait in a latency row
	usage string // "GET table key" — reported on ARGS errors, checked by spec_test
	min   int    // minimum argument count (excluding the name)
	max   int    // maximum argument count, -1 = unbounded
	fn    func(s *session, args [][]byte)
}

// commands is the dispatch table; commandNames its sorted index.
var commands = map[string]command{}
var commandNames []string

func register(name, usage string, min, max int, fn func(s *session, args [][]byte)) {
	commands[name] = command{id: len(commands), usage: usage, min: min, max: max, fn: fn}
	commandNames = append(commandNames, name)
	sort.Strings(commandNames)
}

func init() {
	register("PING", "PING", 0, 0, cmdPing)
	register("ECHO", "ECHO message", 1, 1, cmdEcho)
	register("QUIT", "QUIT", 0, 0, cmdQuit)
	register("CREATE", "CREATE table tupleSize", 2, 2, cmdCreate)
	register("TABLES", "TABLES", 0, 0, cmdTables)
	register("COUNT", "COUNT table", 1, 1, cmdCount)
	register("INSERT", "INSERT table key value", 3, 3, cmdInsert)
	register("GET", "GET table key", 2, 2, cmdGet)
	register("GETFU", "GETFU table key", 2, 2, cmdGetFU)
	register("UPDATE", "UPDATE table key offset value", 4, 4, cmdUpdate)
	register("DEL", "DEL table key", 2, 2, cmdDel)
	register("SCAN", "SCAN table from to [limit]", 3, 4, cmdScan)
	register("CINDEX", "CINDEX table index offset", 3, 3, cmdCIndex)
	register("INDEXES", "INDEXES table", 1, 1, cmdIndexes)
	register("GETBY", "GETBY table index key", 3, 3, cmdGetBy)
	register("SCANBY", "SCANBY table index from to [limit]", 4, 5, cmdScanBy)
	register("BEGIN", "BEGIN", 0, 0, cmdBegin)
	register("COMMIT", "COMMIT", 0, 0, cmdCommit)
	register("ABORT", "ABORT", 0, 0, cmdAbort)
	register("CHECKPOINT", "CHECKPOINT", 0, 0, cmdCheckpoint)
	register("STATS", "STATS [JSON]", 0, 1, cmdStats)
	register("INFO", "INFO", 0, 0, cmdInfo)
}

// execute dispatches one decoded command and writes exactly one reply.
func (s *session) execute(args [][]byte) {
	atomic.AddUint64(&s.srv.counts.Commands, 1)
	// The table is keyed by the upper-case spelling, which is what clients
	// send: probing with the bytes as they came allocates nothing (the
	// compiler elides the conversion inside a map index), and only a miss
	// pays for folding the case.
	cmd, ok := commands[string(args[0])]
	if !ok {
		name := strings.ToUpper(string(args[0]))
		if cmd, ok = commands[name]; !ok {
			s.writeError(codeUnknown, fmt.Sprintf("unknown command %q", name))
			return
		}
	}
	rest := args[1:]
	if len(rest) < cmd.min || (cmd.max >= 0 && len(rest) > cmd.max) {
		s.writeError(codeArgs, "usage: "+cmd.usage)
		return
	}
	cmd.fn(s, rest)
	now := s.srv.clock()
	s.lat[cmd.id].Observe(now - s.mark)
	s.mark = now
}

// engineError maps err onto its wire code and writes the error reply.
func (s *session) engineError(err error) {
	s.writeError(errCode(err), err.Error())
}

// table resolves a table name argument, writing NOTABLE on failure.
func (s *session) table(name []byte) (*ipa.Table, bool) {
	if s.tbl != nil && s.tbl.Name() == string(name) {
		return s.tbl, true
	}
	t, ok := s.srv.db.Table(string(name))
	if !ok {
		s.writeError(codeNoTable, fmt.Sprintf("no such table %q", name))
		return nil, false
	}
	s.tbl = t
	return t, true
}

// keyed resolves a command's table and primary-key arguments, args[0]
// and args[1], writing the error reply when either is bad.
func (s *session) keyed(args [][]byte) (*ipa.Table, int64, bool) {
	t, ok := s.table(args[0])
	if !ok {
		return nil, 0, false
	}
	key, ok := s.argInt("key", args[1])
	return t, key, ok
}

// argInt parses a decimal int64 argument, writing ARGS on failure.
func (s *session) argInt(what string, b []byte) (int64, bool) {
	n, err := proto.ParseInt(b)
	if err != nil {
		s.writeError(codeArgs, fmt.Sprintf("bad %s %q", what, b))
		return 0, false
	}
	return n, true
}

// tuple pads value to the table's fixed tuple size, writing ARGS when the
// value does not fit.
func (s *session) tuple(t *ipa.Table, value []byte) ([]byte, bool) {
	if len(value) > t.TupleSize() {
		s.writeError(codeArgs, fmt.Sprintf("value of %d bytes exceeds the %d-byte tuples of %q",
			len(value), t.TupleSize(), t.Name()))
		return nil, false
	}
	tuple := make([]byte, t.TupleSize())
	copy(tuple, value)
	return tuple, true
}

// finishWrite ends a write command whose engine call returned err, and
// writes its reply. Every write on the wire is transactional and
// WAL-logged: it runs in the session's open transaction or, outside BEGIN,
// in one its handler began for it (tx, when s.tx is nil), which commits
// here, or aborts on err. The handlers begin that transaction in line, not
// through a helper or a closure: db.Begin inlined into its caller keeps the
// Tx off the heap, so an autocommitted write allocates what the engine
// does and nothing more (TestWireAllocations).
func (s *session) finishWrite(tx *ipa.Tx, err error) {
	if s.tx == nil {
		if err != nil {
			_ = tx.Abort()
		} else {
			err = tx.Commit()
		}
	}
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteSimple("OK")
}

func cmdPing(s *session, _ [][]byte) { s.w.WriteSimple("PONG") }

func cmdEcho(s *session, args [][]byte) { s.w.WriteBulk(args[0]) }

func cmdQuit(s *session, _ [][]byte) {
	s.quit = true
	s.w.WriteSimple("OK")
}

func cmdCreate(s *session, args [][]byte) {
	size, ok := s.argInt("tuple size", args[1])
	if !ok {
		return
	}
	if _, err := s.srv.db.CreateTable(string(args[0]), int(size)); err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteSimple("OK")
}

// writeNames writes a list of names as an array of bulk strings.
func (s *session) writeNames(names []string) {
	s.w.WriteArray(len(names))
	for _, n := range names {
		s.w.WriteBulkString(n)
	}
}

func cmdTables(s *session, _ [][]byte) { s.writeNames(s.srv.db.Tables()) }

func cmdCount(s *session, args [][]byte) {
	if t, ok := s.table(args[0]); ok {
		s.w.WriteInt(int64(t.Count()))
	}
}

func cmdInsert(s *session, args [][]byte) {
	t, key, ok := s.keyed(args)
	if !ok {
		return
	}
	tuple, ok := s.tuple(t, args[2])
	if !ok {
		return
	}
	tx := s.tx
	if tx == nil {
		tx = s.srv.db.Begin()
	}
	s.finishWrite(tx, tx.Insert(t, key, tuple))
}

func cmdGet(s *session, args [][]byte) {
	t, key, ok := s.keyed(args)
	if !ok {
		return
	}
	var err error
	if s.tx != nil {
		s.row, err = s.tx.AppendGet(s.row[:0], t, key) // repeatable read at the txn snapshot
	} else {
		s.row, err = t.AppendGet(s.row[:0], key) // fresh statement snapshot
	}
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteBulk(s.row)
}

// cmdGetFU is GET under the transaction's record lock: the returned
// value cannot change (or roll back) before COMMIT/ABORT, so a
// read-modify-write built from it never loses a concurrent update. Only
// meaningful inside a transaction — the lock's lifetime is the
// transaction's — so outside one it is a NOTXN error.
func cmdGetFU(s *session, args [][]byte) {
	if s.tx == nil {
		s.writeError(codeNoTxn, "GETFU requires an open transaction")
		return
	}
	t, key, ok := s.keyed(args)
	if !ok {
		return
	}
	tuple, err := s.tx.GetForUpdate(t, key)
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteBulk(tuple)
}

func cmdUpdate(s *session, args [][]byte) {
	t, key, ok := s.keyed(args)
	if !ok {
		return
	}
	offset, ok := s.argInt("offset", args[2])
	if !ok {
		return
	}
	tx := s.tx
	if tx == nil {
		tx = s.srv.db.Begin()
	}
	s.finishWrite(tx, tx.UpdateAt(t, key, int(offset), args[3]))
}

func cmdDel(s *session, args [][]byte) {
	t, key, ok := s.keyed(args)
	if !ok {
		return
	}
	tx := s.tx
	if tx == nil {
		tx = s.srv.db.Begin()
	}
	s.finishWrite(tx, tx.Delete(t, key))
}

// scanRow is one buffered row of a range read.
type scanRow struct {
	key   int64
	tuple []byte
}

// defaultScanLimit bounds SCAN and SCANBY when no limit is given.
const defaultScanLimit = 1000

// scan answers a range read: from, to and the optional limit are args[i:],
// and read runs the table's scan with a callback that buffers the rows.
func (s *session) scan(args [][]byte, i int, read func(from, to int64, fn func(int64, []byte) bool) error) {
	from, ok := s.argInt("from", args[i])
	if !ok {
		return
	}
	to, ok := s.argInt("to", args[i+1])
	if !ok {
		return
	}
	limit := int64(defaultScanLimit)
	if len(args) > i+2 {
		if limit, ok = s.argInt("limit", args[i+2]); !ok {
			return
		}
		if limit <= 0 {
			s.writeError(codeArgs, "limit must be positive")
			return
		}
	}
	rows := make([]scanRow, 0, 16)
	err := read(from, to, func(key int64, tuple []byte) bool {
		rows = append(rows, scanRow{key, tuple})
		return int64(len(rows)) < limit
	})
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteArray(2 * len(rows))
	for _, r := range rows {
		s.w.WriteInt(r.key)
		s.w.WriteBulk(r.tuple)
	}
}

func cmdScan(s *session, args [][]byte) {
	if t, ok := s.table(args[0]); ok {
		s.scan(args, 1, t.ScanRange)
	}
}

func cmdCIndex(s *session, args [][]byte) {
	t, ok := s.table(args[0])
	if !ok {
		return
	}
	offset, ok := s.argInt("offset", args[2])
	if !ok {
		return
	}
	if offset < 0 || int(offset)+8 > t.TupleSize() {
		s.writeError(codeArgs, fmt.Sprintf("offset %d outside the %d-byte tuples of %q (need offset+8 <= size)",
			offset, t.TupleSize(), t.Name()))
		return
	}
	if _, err := t.CreateSecondaryIndex(string(args[1]), ipa.Int64Field(int(offset))); err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteSimple("OK")
}

func cmdIndexes(s *session, args [][]byte) {
	if t, ok := s.table(args[0]); ok {
		s.writeNames(t.SecondaryIndexes())
	}
}

func cmdGetBy(s *session, args [][]byte) {
	t, ok := s.table(args[0])
	if !ok {
		return
	}
	key, ok := s.argInt("key", args[2])
	if !ok {
		return
	}
	rows, err := t.GetBySecondary(string(args[1]), key)
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteArray(len(rows))
	for _, row := range rows {
		s.w.WriteBulk(row)
	}
}

func cmdScanBy(s *session, args [][]byte) {
	if t, ok := s.table(args[0]); ok {
		s.scan(args, 2, func(from, to int64, fn func(int64, []byte) bool) error {
			return t.ScanSecondary(string(args[1]), from, to, fn)
		})
	}
}

func cmdBegin(s *session, _ [][]byte) {
	if s.tx != nil {
		s.writeError(codeInTxn, "transaction already open on this connection")
		return
	}
	s.tx = s.srv.db.Begin()
	s.w.WriteSimple("OK")
}

func cmdCommit(s *session, _ [][]byte) {
	if s.tx == nil {
		s.writeError(codeNoTxn, "no transaction open on this connection")
		return
	}
	err := s.tx.Commit()
	s.tx = nil
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteSimple("OK")
}

func cmdAbort(s *session, _ [][]byte) {
	if s.tx == nil {
		s.writeError(codeNoTxn, "no transaction open on this connection")
		return
	}
	err := s.tx.Abort()
	s.tx = nil
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteSimple("OK")
}

func cmdCheckpoint(s *session, _ [][]byte) {
	res, err := s.srv.db.Checkpoint()
	if err != nil {
		s.engineError(err)
		return
	}
	out, err := json.Marshal(res)
	if err != nil {
		s.engineError(err)
		return
	}
	s.w.WriteBulk(out)
}

func cmdStats(s *session, args [][]byte) {
	st := s.srv.db.Stats()
	if len(args) == 1 {
		if !strings.EqualFold(string(args[0]), "JSON") {
			s.writeError(codeArgs, "usage: STATS [JSON]")
			return
		}
		out, err := json.Marshal(st)
		if err != nil {
			s.engineError(err)
			return
		}
		s.w.WriteBulk(out)
		return
	}
	s.w.WriteBulkString(st.String())
}

func cmdInfo(s *session, _ [][]byte) {
	srv := s.srv
	var b strings.Builder
	fmt.Fprintf(&b, "addr:%s\n", srv.ln.Addr())
	fmt.Fprintf(&b, "uptime_seconds:%d\n", int64(time.Since(srv.started).Seconds()))
	fmt.Fprintf(&b, "workers:%d\n", srv.cfg.Workers)
	stat.Each(stat.Load(&srv.counts), func(f stat.Field) {
		fmt.Fprintf(&b, "%s:%v\n", metricName("", f), f.Value())
	})
	fmt.Fprintf(&b, "draining:%v\n", srv.draining.Load())
	fmt.Fprintf(&b, "commands:%s\n", strings.Join(commandNames, ","))
	s.w.WriteBulkString(b.String())
}
