package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"telegraphos/internal/trace"
)

// TestDumpEventsTablesEveryKey: every record in a valid TGE1 stream
// must show up in the per-kind and per-node tables, including node
// ranks past 2^20 and kind bytes past 63, and the tables are sorted.
func TestDumpEventsTablesEveryKey(t *testing.T) {
	var buf bytes.Buffer
	sw, err := trace.NewSpillWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := []trace.Event{
		{At: 1, Node: 1 << 21, Kind: trace.EvWriteApply},
		{At: 2, Node: 3, Kind: 200},
		{At: 3, Node: 1 << 21, Kind: trace.EvWriteApply},
		{At: 4, Node: 0, Kind: trace.EvFenceEnd},
	}
	for _, e := range evs {
		if err := sw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := dumpEvents(&out, &buf, 1); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		evs[0].String(),
		"events:  4 (t=1..4)",
		"hash:    " + hashLine(evs),
		"  write-apply        2",
		"  fence-end          1",
		"  EventKind(200)     1",
		"  node0              1",
		"  node3              1",
		"  node2097152        2",
		"",
	}, "\n")
	if got := out.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// hashLine renders the fingerprint of evs as dumpEvents prints it.
func hashLine(evs []trace.Event) string {
	l := trace.NewEventLog()
	for _, e := range evs {
		l.Append(e)
	}
	return fmt.Sprintf("%#016x", l.Hash())
}
