package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aim/internal/server"
)

// runRemote is the `aimctl remote` subcommand: a thin wire-protocol client
// for a running aimd. Statements come from the command line or, with none
// given, from stdin one per line; -tune triggers one tuning cycle and
// prints the verdict; -trace stamps each statement with a client-supplied
// trace ID (suffixed with the statement ordinal when several are sent).
//
//	aimctl remote -addr 127.0.0.1:4440 "SELECT id FROM events WHERE user_id = 7"
//	aimctl remote -addr 127.0.0.1:4440 -trace deploy-42 "SELECT ..."
//	aimctl remote -addr 127.0.0.1:4440 -tune
//	cat stmts.sql | aimctl remote -addr 127.0.0.1:4440
func (a *app) runRemote(args []string) int {
	fs := flag.NewFlagSet("aimctl remote", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4440", "aimd address")
	label := fs.String("label", "aimctl", "session label (window attribution)")
	tune := fs.Bool("tune", false, "trigger one tuning cycle and print the verdict")
	ping := fs.Bool("ping", false, "liveness round-trip only")
	traceID := fs.String("trace", "", "trace ID to stamp on statements (audit windows then name it)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-frame round-trip bound")
	if status, done := a.parse(fs, args); done {
		return status
	}

	c, err := server.Dial(*addr, *timeout)
	if err != nil {
		return a.fail(err)
	}
	defer c.Close()
	if *ping {
		if err := c.Ping(); err != nil {
			return a.fail(err)
		}
		fmt.Fprintln(a.out, "pong")
		return 0
	}
	if err := c.Hello(*label); err != nil {
		return a.fail(err)
	}

	nth := 0
	run := func(sql string) error {
		var res *server.Result
		var err error
		if *traceID != "" {
			id := *traceID
			if nth > 0 {
				id = fmt.Sprintf("%s-%d", id, nth)
			}
			nth++
			res, err = c.QueryTraced(id, sql)
		} else {
			res, err = c.Query(sql)
		}
		if err != nil {
			return err
		}
		if res.Columns == nil && len(res.Rows) == 0 {
			fmt.Fprintf(a.out, "ok (%d rows affected)\n", res.Affected)
			return nil
		}
		fmt.Fprintln(a.out, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(a.out, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(a.out, "(%d rows)\n", len(res.Rows))
		return nil
	}

	if stmts := fs.Args(); len(stmts) > 0 {
		for _, sql := range stmts {
			if err := run(sql); err != nil {
				return a.fail(err)
			}
		}
	} else if !*tune {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 0, 64*1024), server.MaxFrame)
		for sc.Scan() {
			line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sc.Text()), ";"))
			if line == "" || strings.HasPrefix(line, "--") {
				continue
			}
			if err := run(line); err != nil {
				return a.fail(err)
			}
		}
		if err := sc.Err(); err != nil {
			return a.fail(err)
		}
	}

	if *tune {
		line, err := c.Tune()
		if err != nil {
			return a.fail(err)
		}
		fmt.Fprintln(a.out, line)
	}
	return 0
}
