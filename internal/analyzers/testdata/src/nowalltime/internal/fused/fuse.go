// Fixture for the nowalltime analyzer's deterministic scope: internal/fused,
// whose fusion and checkpoint payload carry the byte-determinism contract,
// bans the clock outright — including reads laundered through internal/obs.
package fused

import (
	"time"

	"repro/internal/obs"
)

func fuseStamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in a byte-deterministic package`
}

func fuseStampLaundered() int64 {
	return obs.Now().UnixNano() // want `obs\.Now in a byte-deterministic package`
}

func fuseAge(t time.Time) time.Duration {
	return obs.Since(t) // want `obs\.Since in a byte-deterministic package`
}
