// Command mvctl is the vstore shell. It creates tables, views and
// indexes, issues reads and writes, and dumps view/versioning
// internals, either against an embedded cluster (the default) or
// against a running mvserver over the wire protocol (-addr). Commands
// can also be piped on stdin.
//
//	$ mvctl                        # embedded cluster
//	$ mvctl -addr 127.0.0.1:7654   # remote mvserver
//	> create table ticket
//	> create view assignedto on ticket key assignedto materialize status
//	> put ticket 1 assignedto=rliu status=open
//	> getview assignedto rliu
//	> quit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vstore"
	"vstore/internal/wire"
)

// conn is the client command set the shell drives. It is exactly the
// method set of *wire.Client, so a remote connection needs no adapter;
// embedded adapts a *vstore.DB to it.
type conn interface {
	CreateTable(name string) error
	CreateView(def vstore.ViewDef) error
	CreateJoinView(def vstore.JoinViewDef) error
	CreateIndex(table, column string) error
	Put(table, key string, values vstore.Values) error
	Delete(table, key string, columns ...string) error
	Get(table, key string, columns ...string) (vstore.Row, error)
	GetRow(table, key string) (vstore.Row, error)
	GetView(view, viewKey string, columns ...string) ([]vstore.ViewRow, error)
	QueryIndex(table, column, value string, readColumns ...string) ([]vstore.IndexRow, error)
	BeginSession() error
	EndSession() error
	PruneView(view string, horizonTS int64) (int, error)
	RebuildView(view string) error
	Stats() (vstore.Stats, error)
	Quiesce() error
}

func main() {
	addr := flag.String("addr", "", "mvserver address; empty runs an embedded cluster")
	nodes := flag.Int("nodes", 4, "cluster size (embedded)")
	repl := flag.Int("replication", 3, "replication factor N (embedded)")
	flag.Parse()

	var c conn
	if *addr == "" {
		db, err := vstore.Open(vstore.Config{Nodes: *nodes, ReplicationFactor: *repl})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvctl: %v\n", err)
			os.Exit(1)
		}
		defer db.Close()
		c = newEmbedded(db)
		fmt.Printf("embedded cluster up: %d nodes, N=%d. type 'help'.\n", db.Nodes(), db.ReplicationFactor())
	} else {
		wc, err := wire.Dial(*addr, 5*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvctl: %v\n", err)
			os.Exit(1)
		}
		defer wc.Close()
		if err := wc.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "mvctl: ping: %v\n", err)
			os.Exit(1)
		}
		c = wc
		fmt.Printf("connected to %s. type 'help'.\n", *addr)
	}

	interactive := true
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		interactive = false
	}
	run(os.Stdin, os.Stdout, c, interactive)
}

// run executes the commands read from in until EOF or quit, printing
// results and errors to out.
func run(in io.Reader, out io.Writer, c conn, prompt bool) {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(out, "> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := execute(out, c, line); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

func execute(w io.Writer, c conn, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprint(w, `commands:
  create table NAME
  create view NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]
  create index TABLE COL
  create joinview NAME LEFTBASE:COL RIGHTBASE:COL
  put TABLE KEY COL=VAL [COL=VAL ...]
  delete TABLE KEY COL [COL ...]
  get TABLE KEY [COL ...]
  getview VIEW VIEWKEY
  queryindex TABLE COL VALUE [READCOL ...]
  session begin | session end
  prune VIEW OLDER_THAN_SECONDS
  rebuild VIEW
  stats | quiesce
  quit
embedded only:
  drop view NAME
  wait view NAME
  tables | views | traces | antientropy
  nodedown N | nodeup N
`)
		return nil

	case "create":
		if len(fields) < 3 {
			return fmt.Errorf("create what?")
		}
		switch fields[1] {
		case "table":
			return c.CreateTable(fields[2])
		case "view":
			// create view NAME on BASE key COL [materialize C...]
			def := vstore.ViewDef{Name: fields[2]}
			rest := fields[3:]
			sel := func() *vstore.Selection {
				if def.Selection == nil {
					def.Selection = &vstore.Selection{}
				}
				return def.Selection
			}
			for i := 0; i < len(rest); i++ {
				switch {
				case rest[i] == "on":
					i++
					def.Base = rest[i]
				case rest[i] == "key":
					i++
					def.ViewKey = rest[i]
				case rest[i] == "materialize":
					def.Materialized = rest[i+1:]
					i = len(rest)
				case strings.HasPrefix(rest[i], "prefix="):
					sel().Prefix = strings.TrimPrefix(rest[i], "prefix=")
				case strings.HasPrefix(rest[i], "min="):
					sel().Min = strings.TrimPrefix(rest[i], "min=")
				case strings.HasPrefix(rest[i], "max="):
					sel().Max = strings.TrimPrefix(rest[i], "max=")
				}
			}
			return c.CreateView(def)
		case "joinview":
			// create joinview NAME LEFTBASE:JOINCOL RIGHTBASE:JOINCOL
			if len(fields) != 5 {
				return fmt.Errorf("usage: create joinview NAME LEFTBASE:COL RIGHTBASE:COL")
			}
			lb, lc, ok1 := strings.Cut(fields[3], ":")
			rb, rc, ok2 := strings.Cut(fields[4], ":")
			if !ok1 || !ok2 {
				return fmt.Errorf("sides must be BASE:JOINCOL")
			}
			return c.CreateJoinView(vstore.JoinViewDef{
				Name:  fields[2],
				Left:  vstore.JoinSide{Base: lb, On: lc},
				Right: vstore.JoinSide{Base: rb, On: rc},
			})
		case "index":
			if len(fields) != 4 {
				return fmt.Errorf("usage: create index TABLE COL")
			}
			return c.CreateIndex(fields[2], fields[3])
		}
		return fmt.Errorf("unknown create target %q", fields[1])

	case "put":
		if len(fields) < 4 {
			return fmt.Errorf("usage: put TABLE KEY COL=VAL ...")
		}
		vals := vstore.Values{}
		for _, kv := range fields[3:] {
			col, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad column assignment %q", kv)
			}
			vals[col] = val
		}
		return c.Put(fields[1], fields[2], vals)

	case "delete":
		if len(fields) < 4 {
			return fmt.Errorf("usage: delete TABLE KEY COL ...")
		}
		return c.Delete(fields[1], fields[2], fields[3:]...)

	case "get":
		if len(fields) < 3 {
			return fmt.Errorf("usage: get TABLE KEY [COL ...]")
		}
		var row vstore.Row
		var err error
		if len(fields) > 3 {
			row, err = c.Get(fields[1], fields[2], fields[3:]...)
		} else {
			row, err = c.GetRow(fields[1], fields[2])
		}
		if err != nil {
			return err
		}
		printRow(w, row)
		return nil

	case "getview":
		if len(fields) != 3 {
			return fmt.Errorf("usage: getview VIEW VIEWKEY")
		}
		rows, err := c.GetView(fields[1], fields[2])
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			fmt.Fprintln(w, "(no rows)")
		}
		for _, r := range rows {
			fmt.Fprintf(w, "base=%s ", r.BaseKey)
			printRow(w, r.Columns)
		}
		return nil

	case "queryindex":
		if len(fields) < 4 {
			return fmt.Errorf("usage: queryindex TABLE COL VALUE [READCOL ...]")
		}
		rows, err := c.QueryIndex(fields[1], fields[2], fields[3], fields[4:]...)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			fmt.Fprintln(w, "(no rows)")
		}
		for _, r := range rows {
			fmt.Fprintf(w, "key=%s ", r.Key)
			printRow(w, r.Columns)
		}
		return nil

	case "session":
		if len(fields) != 2 || (fields[1] != "begin" && fields[1] != "end") {
			return fmt.Errorf("usage: session begin|end")
		}
		if fields[1] == "begin" {
			return c.BeginSession()
		}
		return c.EndSession()

	case "prune":
		if len(fields) != 3 {
			return fmt.Errorf("usage: prune VIEW OLDER_THAN_SECONDS")
		}
		var secs int64
		if _, err := fmt.Sscanf(fields[2], "%d", &secs); err != nil {
			return err
		}
		horizon := time.Now().Add(-time.Duration(secs) * time.Second).UnixMicro()
		removed, err := c.PruneView(fields[1], horizon)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pruned %d stale rows\n", removed)
		return nil

	case "rebuild":
		if len(fields) != 2 {
			return fmt.Errorf("usage: rebuild VIEW")
		}
		return c.RebuildView(fields[1])

	case "stats":
		s, err := c.Stats()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
		fmt.Fprintf(w, "concurrent writes (DVV sibling pairs): %d\n", s.Writes.ConcurrentWrites)
		return nil

	case "quiesce":
		return c.Quiesce()

	case "tables", "views", "traces", "antientropy", "drop", "wait", "nodedown", "nodeup":
		e, ok := c.(*embedded)
		if !ok {
			return fmt.Errorf("%s is embedded-only: run mvctl without -addr", fields[0])
		}
		return e.local(w, fields)
	}
	return fmt.Errorf("unknown command %q (try 'help')", fields[0])
}

func printRow(w io.Writer, row vstore.Row) {
	if len(row) == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	cols := make([]string, 0, len(row))
	for c := range row {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	parts := make([]string, 0, len(cols))
	for _, c := range cols {
		parts = append(parts, fmt.Sprintf("%s=%s@%d", c, row[c].Value, row[c].Timestamp))
	}
	fmt.Fprintln(w, strings.Join(parts, " "))
}
