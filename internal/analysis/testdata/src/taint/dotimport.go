package taint

// A dot import binds no qualifier, so the standard library's members
// arrive unqualified and cannot be resolved against the loader's faked
// stdlib: the import itself is the finding.
import (
	. "os"   // want `^\. import of os: unqualified host environment/identity reads`
	. "time" // want `^\. import of time: unqualified wall-clock reads`
)

func dotStamp() int64 {
	return Now().UnixNano()
}

func dotEnv() string {
	return Getenv("TG_SEED")
}
