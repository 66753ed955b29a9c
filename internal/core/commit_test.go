package core

import (
	"testing"

	"faulthound/internal/detect"
	"faulthound/internal/pbfs"
	"faulthound/internal/stats"
)

// TestCommitMutates checks each detector's CommitMutates against what
// its commit check does. From a trained detector, two copies take the
// same check stream, except that one first takes a burst of commit
// checks with outlying values; the actions they then return must agree
// whenever CommitMutates reports false. The reconvergence digest leaves
// such a detector's commit checks out, so a false report that hides
// training would let a faulty run match a golden digest it has not
// rejoined. The no-cluster tables, which train at commit, must show a
// difference, so the check can tell the two cases apart.
func TestCommitMutates(t *testing.T) {
	for _, k := range []struct {
		name    string
		mk      func() detect.Detector
		mutates bool
	}{
		{"faulthound", func() detect.Detector { return New(DefaultConfig()) }, false},
		{"faulthound-backend", func() detect.Detector { return New(BackendConfig()) }, false},
		{"fh-be-no2level", func() detect.Detector { return New(No2LevelConfig()) }, false},
		{"fh-be-full-rollback", func() detect.Detector { return New(FullRollbackConfig()) }, false},
		{"fh-be-nolsq", func() detect.Detector { return New(NoLSQConfig()) }, false},
		{"fh-be-nocluster-no2level", func() detect.Detector { return New(NoClusterNo2LevelConfig()) }, true},
		{"pbfs", func() detect.Detector { return pbfs.New(pbfs.Default()) }, false},
		{"pbfs-biased", func() detect.Detector { return pbfs.New(pbfs.Biased()) }, false},
	} {
		t.Run(k.name, func(t *testing.T) {
			d := k.mk()
			if d.CommitMutates() != k.mutates {
				t.Fatalf("CommitMutates() = %v, want %v", d.CommitMutates(), k.mutates)
			}
			rng := stats.NewRNG(7)
			var base [16]uint64
			for i := range base {
				base[i] = 0x10000 + uint64(i)<<12
			}
			// event draws a check of a 16-PC stream whose values mostly
			// stay near each PC's base, with an occasional bit flip.
			event := func() detect.Event {
				pc := uint64(rng.Intn(len(base)))
				v := base[pc] + 8*uint64(rng.Intn(4))
				if rng.Bool(0.05) {
					v ^= 1 << uint(rng.Intn(64))
				}
				return detect.Event{Kind: detect.Kind(rng.Intn(3)), PC: pc, Value: v}
			}
			for i := 0; i < 2000; i++ {
				d.OnComplete(event())
			}
			differed := 0
			for trial := 0; trial < 200; trial++ {
				a, b := d.CloneInto(nil), d.CloneInto(nil)
				for i := 0; i < 4; i++ {
					ev := event()
					ev.Value ^= 1 << uint(32+rng.Intn(32))
					b.OnCommit(ev)
				}
				for i := 0; i < 40; i++ {
					ev := event()
					if ac, bc := a.OnComplete(ev), b.OnComplete(ev); ac != bc {
						differed++
						break
					}
					if ac, bc := a.OnCommit(ev), b.OnCommit(ev); ac != bc {
						differed++
						break
					}
				}
				d.OnComplete(event())
			}
			switch {
			case !k.mutates && differed > 0:
				t.Errorf("CommitMutates() is false, but commit checks changed a later action in %d of 200 trials", differed)
			case k.mutates && differed == 0:
				t.Errorf("CommitMutates() is true, but no commit check changed a later action in 200 trials: the check cannot see training")
			}
		})
	}
}
