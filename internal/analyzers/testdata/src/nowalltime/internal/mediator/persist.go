package mediator

import (
	"time"

	"repro/internal/obs"
)

// The mediator is not a deterministic scope: it times fetches, fusions and
// refreshes through internal/obs, and only the repo-wide tier applies.
func refreshDuration(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since outside internal/obs`
}

func refreshDurationObs(start time.Time) time.Duration {
	return obs.Since(start)
}

func fuseStart() time.Time {
	return obs.Now()
}
