package mediator

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fused"
)

// builtCheckpointSHA256 pins the checkpoint payload of the seeded 1k-gene
// world (datagen.DefaultConfig over LocusLink, GO and OMIM) as a fresh
// build publishes it, by reconciliation policy and fusion worker count,
// with the build's fetch and fuse times zeroed. The payload carries the
// oem binary graph, so a change to how objects are stored, numbered or
// encoded that reaches a built world moves these digests. The workers-1
// digests are the bytes the retired single-threaded fusion produced: one
// fusion shard reproduces it exactly.
var builtCheckpointSHA256 = map[fused.Policy]map[int]string{
	fused.PolicyPreferPrimary: {
		1: "5d10290a1475e47a5c134fa938f9a2ccf810699031b33de1a870fba6ce25f3d4",
		4: "1f9bce671b725140534350f05b30d8ba58a089a88f026438f824ea10d54799c1",
	},
	fused.PolicyMajority: {
		1: "25f2c4a6786fe9135aa8c105da6ad0e1f1c2f5c5ed5b4b200a744660db8719e8",
		4: "3e0dd701c56efb9db9a72c85c9712ceb03b9fcecee61fbd272943dc428ef7261",
	},
	fused.PolicyUnion: {
		1: "853294831020b0ddc90eeddc98a356a64d6e43b8f99168a74e81827a963cc071",
		4: "79323d8e887c87cc8d7c05fbd084a59424388ffdb4dacbb10f8e6f69d1bd993e",
	},
}

// TestBuiltCheckpointGolden: a built epoch's checkpoint payload is
// byte-identical to the pinned one, on one fusion shard and on four.
func TestBuiltCheckpointGolden(t *testing.T) {
	c := datagen.Generate(datagen.DefaultConfig())
	for policy, byWorkers := range builtCheckpointSHA256 {
		for workers, want := range byWorkers {
			m := manager(t, c, Options{Workers: workers, Policy: policy})
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
				t.Errorf("policy %v workers %d: checkpoint sha256 %s, want %s", policy, workers, got, want)
			}
		}
	}
}
