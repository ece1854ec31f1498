// Command ipadb is the shell of a running ipaserver: every line on stdin
// is one command of the server's command set (docs/DESIGN_SERVER.md),
// split on whitespace and sent over one connection, and every reply is
// printed as prose or, under -json, as one envelope per line. Verbs are
// case-insensitive; INFO lists them all.
//
// Usage:
//
//	ipadb [-addr 127.0.0.1:6389] [-json]
//	ipadb watch [-url http://127.0.0.1:6390] [-interval 1s] [-n 0] [-plain]
//
// Under -json every command answers with one uniform envelope per line:
//
//	{"ok":true,"cmd":"scan","elapsed_ms":0.123,"data":[1,"ALICE",2,"bob"]}
//	{"ok":false,"cmd":"get","elapsed_ms":0.051,"error":{"code":"NOTFOUND","msg":"..."}}
//
// data is the reply as JSON: status and bulk replies are strings (a
// tuple's NUL padding trimmed), integers numbers, a null bulk null and
// arrays arrays. error carries the code and message of the server's
// -CODE msg reply as they came. The envelope schema is specified in
// docs/DESIGN_OPS.md and pinned by the golden tests in main_test.go.
//
// The watch subcommand polls a running ipaserver's /stats.json and
// renders a refreshing terminal view of the ops gauges: lifetime burn,
// time to death, windowed rates, per-chip wear and command latencies.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipa/internal/proto"
	"ipa/ipaclient"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(watchMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipadb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:6389", "ipaserver address")
		jsonOut = fs.Bool("json", false, "answer every command with a JSON envelope")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ipadb: %v\n", err)
		return 1
	}

	c, err := ipaclient.Dial(*addr)
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	if !*jsonOut {
		fmt.Fprintf(stdout, "ipadb: connected to %s — INFO lists the commands\n", *addr)
	}

	in := bufio.NewScanner(stdin)
	for {
		if !*jsonOut {
			fmt.Fprint(stdout, "> ")
		}
		if !in.Scan() {
			break
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		start := time.Now()
		r, err := c.DoStrings(fields...)
		elapsed := time.Since(start)
		var se *ipaclient.Error
		if err != nil && !errors.As(err, &se) {
			return fail(err) // the connection is gone
		}
		verb := strings.ToLower(fields[0])
		switch {
		case *jsonOut:
			env := envelope{OK: se == nil, Cmd: verb, ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
			if se != nil {
				env.Error = &envError{Code: se.Code, Msg: se.Message}
			} else {
				env.Data, _ = json.Marshal(value(r)) // strings, numbers, nil and slices of them
			}
			out, _ := json.Marshal(env) // Data is Marshal's own output, the rest plain fields
			fmt.Fprintln(stdout, string(out))
		case se != nil:
			fmt.Fprintf(stdout, "error: %s %s\n", se.Code, se.Message)
		default:
			prose(stdout, value(r))
		}
		if verb == "quit" && se == nil {
			return 0 // the server hangs up after answering
		}
	}
	if !*jsonOut {
		fmt.Fprintln(stdout)
	}
	if err := in.Err(); err != nil {
		return fail(err)
	}
	return 0
}

// envelope is the uniform -json reply: exactly one per command, one per
// line. The schema is part of docs/DESIGN_OPS.md.
type envelope struct {
	OK        bool            `json:"ok"`
	Cmd       string          `json:"cmd"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Data      json.RawMessage `json:"data,omitempty"`
	Error     *envError       `json:"error,omitempty"`
}

// envError is the server's error reply: its wire code and message.
type envError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// value is a reply as JSON sees it: status and bulk replies as text with
// a tuple's NUL padding trimmed, integers as numbers, a null bulk as nil,
// arrays element by element.
func value(r proto.Reply) any {
	switch r.Kind {
	case proto.KindInt:
		return r.Int
	case proto.KindBulk:
		return strings.TrimRight(string(r.Bulk), "\x00")
	case proto.KindNull:
		return nil
	case proto.KindArray:
		elems := make([]any, len(r.Elems))
		for i, e := range r.Elems {
			elems[i] = value(e)
		}
		return elems
	default:
		return r.Str
	}
}

// prose prints a reply value for a person: one line per value, an
// array's elements one after the other.
func prose(w io.Writer, v any) {
	switch v := v.(type) {
	case []any:
		if len(v) == 0 {
			fmt.Fprintln(w, "(empty)")
		}
		for _, e := range v {
			prose(w, e)
		}
	case nil:
		fmt.Fprintln(w, "(nil)")
	case string:
		fmt.Fprintln(w, strings.TrimRight(v, "\n"))
	default:
		fmt.Fprintln(w, v)
	}
}
