package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"vstore"
	"vstore/internal/wire"
)

// script exercises the shared command set; every line must print the
// same thing embedded and over the wire, timestamps aside.
const script = `
create table ticket
create view assignedto on ticket key assignedto materialize status
create index ticket status
put ticket 1 assignedto=rliu status=open
put ticket 2 assignedto=rliu status=closed
get ticket 1
get ticket 1 status
session begin
put ticket 3 assignedto=kim status=open
getview assignedto kim
session end
quiesce
getview assignedto rliu
queryindex ticket status open assignedto
put ticket 1 assignedto=kim
quiesce
getview assignedto kim
delete ticket 2 status
get ticket 2
getview assignedto nobody
rebuild assignedto
prune assignedto 0
frobnicate
create view
`

var timestamps = regexp.MustCompile(`@\d+`)

func openDB(t *testing.T) *vstore.DB {
	t.Helper()
	db, err := vstore.Open(vstore.Config{Nodes: 4, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func dialDB(t *testing.T, db *vstore.DB) *wire.Client {
	t.Helper()
	srv := wire.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := wire.Dial(addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func runScript(c conn, s string) string {
	var out strings.Builder
	run(strings.NewReader(s), &out, c, false)
	return timestamps.ReplaceAllString(out.String(), "@TS")
}

func TestEmbeddedAndRemoteShellsAgree(t *testing.T) {
	local := runScript(newEmbedded(openDB(t)), script)
	remote := runScript(dialDB(t, openDB(t)), script)
	if local != remote {
		t.Fatalf("embedded and remote output differ\nembedded:\n%s\nremote:\n%s", local, remote)
	}
	for _, want := range []string{
		"assignedto=rliu@TS status=open@TS\n",
		"status=open@TS\n",
		"base=3 status=open@TS\n",
		"key=1 assignedto=rliu@TS\n",
		"key=3 assignedto=kim@TS\n",
		"base=1 status=open@TS\n",
		"(no rows)\n",
		"pruned ",
		`error: unknown command "frobnicate" (try 'help')`,
		"error: create what?",
	} {
		if !strings.Contains(local, want) {
			t.Errorf("output lacks %q:\n%s", want, local)
		}
	}
	if strings.Contains(local, "error: wire") {
		t.Errorf("server-side error in shared script:\n%s", local)
	}
}

func TestEmbeddedOnlyCommands(t *testing.T) {
	const s = "create table ticket\nput ticket 1 status=open\nget ticket 1\ntraces\ntables\n"
	remote := runScript(dialDB(t, openDB(t)), s)
	for _, cmd := range []string{"traces", "tables"} {
		if want := "error: " + cmd + " is embedded-only"; !strings.Contains(remote, want) {
			t.Errorf("remote output lacks %q:\n%s", want, remote)
		}
	}
	local := runScript(newEmbedded(openDB(t)), s)
	if strings.Contains(local, "error:") {
		t.Fatalf("embedded-only commands failed embedded:\n%s", local)
	}
	if !strings.Contains(local, "client.get") {
		t.Errorf("traces printed no span for the traced get:\n%s", local)
	}
	if !strings.Contains(local, "ticket") {
		t.Errorf("tables did not list ticket:\n%s", local)
	}
}

func TestSessionErrors(t *testing.T) {
	for name, c := range map[string]conn{
		"embedded": newEmbedded(openDB(t)),
		"remote":   dialDB(t, openDB(t)),
	} {
		out := runScript(c, "session end\nsession begin\nsession begin\nsession end\nsession\n")
		if got := strings.Count(out, "error:"); got != 3 {
			t.Errorf("%s: %d errors, want 3 (end without begin, double begin, bare session):\n%s", name, got, out)
		}
	}
}
