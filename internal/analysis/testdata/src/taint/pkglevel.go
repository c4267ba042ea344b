package taint

import (
	"os"
	"time"
)

// Package-level initialisers and func literals sit outside every
// declared function body; the whole-file scan still reports them.
var startedAt = time.Now() // want `^wall-clock time\.Now in simulation code`

var stampFn = func() int64 { return time.Now().UnixNano() } // want `^wall-clock time\.Now in simulation code`

var hostName, _ = os.Hostname() // want `^nondeterministic source os\.Hostname in simulation code`
