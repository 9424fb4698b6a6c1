package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"vstore"
)

// commandTimeout bounds each embedded command, like the wire server's
// per-request timeout.
const commandTimeout = 30 * time.Second

// embedded adapts an in-process *vstore.DB to conn. Reads are traced
// so the traces command can show their span trees.
type embedded struct {
	db   *vstore.DB
	base *vstore.Client
	c    *vstore.Client // base, or a session copy of it
}

func newEmbedded(db *vstore.DB) *embedded {
	c := db.Client(0)
	return &embedded{db: db, base: c, c: c}
}

func cmdContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), commandTimeout)
}

func (e *embedded) CreateTable(name string) error               { return e.db.CreateTable(name) }
func (e *embedded) CreateView(def vstore.ViewDef) error         { return e.db.CreateView(def) }
func (e *embedded) CreateJoinView(def vstore.JoinViewDef) error { return e.db.CreateJoinView(def) }
func (e *embedded) CreateIndex(table, column string) error      { return e.db.CreateIndex(table, column) }

func (e *embedded) Put(table, key string, values vstore.Values) error {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.Put(ctx, table, key, values)
}

func (e *embedded) Delete(table, key string, columns ...string) error {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.Delete(ctx, table, key, columns...)
}

func (e *embedded) Get(table, key string, columns ...string) (vstore.Row, error) {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.Get(ctx, table, key, vstore.WithColumns(columns...), vstore.WithTracing())
}

func (e *embedded) GetRow(table, key string) (vstore.Row, error) {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.GetRow(ctx, table, key, vstore.WithTracing())
}

func (e *embedded) GetView(view, viewKey string, columns ...string) ([]vstore.ViewRow, error) {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.GetView(ctx, view, viewKey, vstore.WithColumns(columns...), vstore.WithTracing())
}

func (e *embedded) QueryIndex(table, column, value string, readColumns ...string) ([]vstore.IndexRow, error) {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.c.QueryIndex(ctx, table, column, value, vstore.WithColumns(readColumns...), vstore.WithTracing())
}

func (e *embedded) BeginSession() error {
	if e.c != e.base {
		return fmt.Errorf("session already open")
	}
	e.c = e.base.Session()
	return nil
}

func (e *embedded) EndSession() error {
	if e.c == e.base {
		return fmt.Errorf("no open session")
	}
	e.c.EndSession()
	e.c = e.base
	return nil
}

func (e *embedded) PruneView(view string, horizonTS int64) (int, error) {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.db.PruneViewBefore(ctx, view, horizonTS)
}

func (e *embedded) RebuildView(view string) error {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.db.RebuildView(ctx, view)
}

func (e *embedded) Stats() (vstore.Stats, error) { return e.db.Stats(), nil }

func (e *embedded) Quiesce() error {
	ctx, cancel := cmdContext()
	defer cancel()
	return e.db.QuiesceViews(ctx)
}

// local runs the commands that reach into the embedded cluster itself
// and have no wire op: tables, views, traces, antientropy, drop/wait
// view and nodedown/nodeup.
func (e *embedded) local(w io.Writer, fields []string) error {
	db := e.db
	switch fields[0] {
	case "tables":
		fmt.Fprintln(w, strings.Join(db.Tables(), " "))
		return nil

	case "views":
		names := db.Views()
		if len(names) == 0 {
			fmt.Fprintln(w, "(no views)")
			return nil
		}
		lc := db.Stats().Views.Lifecycle
		for _, name := range names {
			state, err := db.ViewState(name)
			if err != nil {
				state = "?"
			}
			line := fmt.Sprintf("%s\t%s", name, state)
			if p, ok := lc[name]; ok && p.State == vstore.ViewBackfilling {
				line += fmt.Sprintf("\t(%d/%d partitions, %d rows scanned", p.PartitionsDone, p.Partitions, p.BackfillScanned)
				if p.Resumed {
					line += ", resumed from checkpoint"
				}
				line += ")"
			}
			fmt.Fprintln(w, line)
		}
		return nil

	case "traces":
		ts := db.Traces()
		if len(ts) == 0 {
			fmt.Fprintln(w, "(no traces; reads issued here are traced automatically)")
		}
		for i := len(ts) - 1; i >= 0; i-- { // oldest first reads better in a shell
			fmt.Fprint(w, ts[i].Format())
		}
		return nil

	case "antientropy":
		db.RunAntiEntropy()
		return nil

	case "drop":
		if len(fields) != 3 || fields[1] != "view" {
			return fmt.Errorf("usage: drop view NAME")
		}
		return db.DropView(fields[2])

	case "wait":
		if len(fields) != 3 || fields[1] != "view" {
			return fmt.Errorf("usage: wait view NAME")
		}
		ctx, cancel := cmdContext()
		defer cancel()
		if err := db.WaitViewLive(ctx, fields[2]); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s is live\n", fields[2])
		return nil

	case "nodedown", "nodeup":
		if len(fields) != 2 {
			return fmt.Errorf("usage: %s N", fields[0])
		}
		var n int
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil {
			return err
		}
		db.SetNodeDown(n, fields[0] == "nodedown")
		return nil
	}
	return fmt.Errorf("unknown command %q (try 'help')", fields[0])
}
