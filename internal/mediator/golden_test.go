package mediator

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/datagen"
)

// builtCheckpointSHA256 pins the checkpoint payload of the seeded 1k-gene
// world (datagen.DefaultConfig over LocusLink, GO and OMIM) as a fresh
// build publishes it, by fusion worker count, with the build's fetch and
// fuse times zeroed. The payload carries the oem binary graph, so a change
// to how objects are stored, numbered or encoded that reaches a built
// world moves these digests.
var builtCheckpointSHA256 = map[int]string{
	1: "5d10290a1475e47a5c134fa938f9a2ccf810699031b33de1a870fba6ce25f3d4",
	4: "1f9bce671b725140534350f05b30d8ba58a089a88f026438f824ea10d54799c1",
}

// TestBuiltCheckpointGolden: a built epoch's checkpoint payload is
// byte-identical to the pinned one, sequential and sharded.
func TestBuiltCheckpointGolden(t *testing.T) {
	for workers, want := range builtCheckpointSHA256 {
		m := manager(t, datagen.Generate(datagen.DefaultConfig()), Options{Workers: workers})
		ep, _, err := m.pinEpoch()
		if err != nil {
			t.Fatal(err)
		}
		bs := buildStats(ep.stats)
		bs.FetchTime, bs.FuseTime = 0, 0
		payload, err := ep.w.Encode(ep.fp, bs)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers %d: checkpoint sha256 %s, want %s", workers, got, want)
		}
	}
}
