package tcam

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"faulthound/internal/sm"
)

// refTCAM is the TCAM with its second-level and squash machines kept as
// sm.Suppressor banks and trained by visiting every machine on every
// trigger — the representation the stamps replace. It shares the
// embedded TCAM's filter bank, replacement and counters, and brings its
// own Lookup and Probe.
type refTCAM struct {
	*TCAM
	second []sm.Suppressor // one per bit position
	squash []sm.Suppressor // one per entry
}

func newRefTCAM(cfg Config) *refTCAM {
	r := &refTCAM{TCAM: New(cfg)}
	r.secondQuiet, r.squashQuiet = nil, nil
	bank := func(n, states int) []sm.Suppressor {
		b := make([]sm.Suppressor, n)
		for i := range b {
			b[i] = *sm.NewSuppressor(states)
		}
		return b
	}
	if cfg.SecondLevel {
		r.second = bank(64, cfg.SecondLevelStates)
	}
	if cfg.SquashMachines {
		r.squash = bank(cfg.Entries, cfg.SquashStates)
	}
	return r
}

func (r *refTCAM) Lookup(v uint64) Result {
	t := r.TCAM
	t.stats.Lookups++
	if t.cfg.PeriodicClear != 0 && t.stats.Lookups%t.cfg.PeriodicClear == 0 {
		t.FlashClear()
	}
	t.stamp++
	if t.used == 0 {
		t.install(v)
		return Result{BestIndex: 0}
	}
	best, bestCount := -1, 65
	bestMask := uint64(0)
	var unionMask uint64
	for m := t.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		mask := t.filters[i].Match(v)
		if t.cfg.SecondLevelUnion {
			unionMask |= mask
		}
		n := bits.OnesCount64(mask)
		if n < bestCount {
			best, bestCount, bestMask = i, n, mask
			if n == 0 {
				break
			}
		}
	}
	if bestCount == 0 {
		t.filters[best].Observe(v)
		t.age[best] = t.stamp
		return Result{BestIndex: best}
	}
	res := Result{Trigger: true, BestIndex: best, MismatchMask: bestMask}
	if bestCount <= t.cfg.LoosenThreshold {
		t.filters[best].Observe(v)
		t.age[best] = t.stamp
		t.stats.Loosened++
	} else if free := t.freeEntry(); free >= 0 {
		t.filters[free].Reset(v)
		t.used |= 1 << uint(free)
		t.age[free] = t.stamp
		res.Replaced = true
		res.BestIndex = free
		t.stats.Replaced++
	} else {
		victim := t.lruEntry()
		t.filters[victim].Reset(v)
		t.age[victim] = t.stamp
		res.Replaced = true
		res.BestIndex = victim
		t.stats.Replaced++
	}
	if t.learnOnly {
		t.stats.LearnLookups++
		res.Trigger = false
		res.MismatchMask = 0
		res.Replaced = false
		return res
	}
	t.stats.Triggers++
	if r.second != nil {
		trainMask := bestMask
		if t.cfg.SecondLevelUnion {
			trainMask = unionMask
		}
		quiet, total := 0, 0
		for b := range r.second {
			participated := trainMask>>uint(b)&1 == 1
			allowed := r.second[b].Observe(participated)
			if participated {
				total++
				if allowed {
					quiet++
				}
			}
		}
		if quiet*2 <= total {
			res.Suppressed = true
			t.stats.Suppressed++
			return res
		}
	}
	if r.squash != nil {
		minMM := t.cfg.SquashMinMismatch
		if minMM <= 0 {
			minMM = t.cfg.LoosenThreshold + 1
		}
		wide := bits.OnesCount64(bestMask) >= minMM
		for i := range r.squash {
			allowed := r.squash[i].Observe(i == res.BestIndex)
			if i == res.BestIndex && allowed && wide {
				res.SquashAllowed = true
			}
		}
	}
	if res.SquashAllowed {
		t.stats.Squashes++
	} else {
		t.stats.Replays++
	}
	return res
}

func (r *refTCAM) Probe(v uint64) (trigger, suppressed bool) {
	t := r.TCAM
	if t.used == 0 || t.learnOnly {
		return false, false
	}
	bestCount := 65
	bestMask := uint64(0)
	for m := t.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		mask := t.filters[i].Match(v)
		n := bits.OnesCount64(mask)
		if n < bestCount {
			bestCount, bestMask = n, mask
			if n == 0 {
				return false, false
			}
		}
	}
	if r.second != nil {
		quiet, total := 0, 0
		for m := bestMask; m != 0; m &= m - 1 {
			total++
			if r.second[bits.TrailingZeros64(m)].Quiet() {
				quiet++
			}
		}
		if quiet*2 <= total {
			return true, true
		}
	}
	return true, false
}

// stampStream draws the next value of a seeded stream mixing the
// traffic that exercises both banks: values near a few slowly drifting
// neighborhoods (loosen-level triggers on recurring bits), one-bit
// flips anywhere, and far random values (replacement-level triggers).
type stampStream struct {
	rng   *rand.Rand
	bases [6]uint64
}

func newStampStream(seed int64) *stampStream {
	s := &stampStream{rng: rand.New(rand.NewSource(seed))}
	for i := range s.bases {
		s.bases[i] = s.rng.Uint64()
	}
	return s
}

func (s *stampStream) next() uint64 {
	b := &s.bases[s.rng.Intn(len(s.bases))]
	switch k := s.rng.Intn(20); {
	case k < 12: // near: a small stride off the neighborhood
		*b += uint64(s.rng.Intn(4)) * 8
		return *b
	case k < 15: // a low-order toggle: recurring delinquent bits
		return *b ^ uint64(1)<<uint(s.rng.Intn(6))
	case k < 18: // one flip anywhere
		return *b ^ uint64(1)<<uint(s.rng.Intn(64))
	default: // far
		return s.rng.Uint64()
	}
}

// TestTrainingStampsMatchSuppressors: the stamped second-level and
// squash machines decide exactly what per-machine sm.Suppressor banks
// decide. Both TCAMs see the same seeded value streams, with learn-only
// stretches, explicit flash clears and periodic clears, across entry
// counts, state counts, union training and the squash mismatch floor;
// every Lookup Result, every Probe and the final Stats must agree.
func TestTrainingStampsMatchSuppressors(t *testing.T) {
	const steps = 3000
	var suppressed, allowed, squashes uint64
	for _, entries := range []int{1, 8, 32, 64} {
		for _, states := range []int{2, 3, 8, 16} {
			for _, union := range []bool{false, true} {
				for _, minMM := range []int{0, 3} {
					for _, periodic := range []uint64{0, 61} {
						c := DefaultConfig()
						c.Entries = entries
						c.SecondLevelStates, c.SquashStates = states, states
						c.SecondLevelUnion = union
						c.SquashMinMismatch = minMM
						c.PeriodicClear = periodic
						name := fmt.Sprintf("e%d/s%d/union=%v/min%d/clear%d", entries, states, union, minMM, periodic)
						got, want := New(c), newRefTCAM(c)
						st := newStampStream(int64(entries*1000 + states*10 + minMM))
						ctl := rand.New(rand.NewSource(int64(states)))
						for i := 0; i < steps; i++ {
							switch ctl.Intn(100) {
							case 0:
								learn := ctl.Intn(2) == 0
								got.SetLearnOnly(learn)
								want.SetLearnOnly(learn)
							case 1:
								got.FlashClear()
								want.FlashClear()
							}
							v := st.next()
							gt, gs := got.Probe(v)
							wt, ws := want.Probe(v)
							if gt != wt || gs != ws {
								t.Fatalf("%s step %d: Probe(%#x) = (%v, %v), reference (%v, %v)", name, i, v, gt, gs, wt, ws)
							}
							g, w := got.Lookup(v), want.Lookup(v)
							if g != w {
								t.Fatalf("%s step %d: Lookup(%#x) = %+v, reference %+v", name, i, v, g, w)
							}
						}
						s := got.Stats()
						if w := want.Stats(); s != w {
							t.Fatalf("%s: stats %+v, reference %+v", name, s, w)
						}
						suppressed += s.Suppressed
						allowed += s.Replays
						squashes += s.Squashes
					}
				}
			}
		}
	}
	// The streams must drive both banks every way, or agreement would
	// be vacuous.
	if suppressed < 1000 || allowed < 1000 || squashes < 1000 {
		t.Fatalf("streams too tame: %d suppressed, %d replays, %d squashes", suppressed, allowed, squashes)
	}
	t.Logf("%d suppressed, %d replays, %d squashes", suppressed, allowed, squashes)
}
