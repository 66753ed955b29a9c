// Package sm implements the change-tracking state machines that underlie
// FaultHound's and PBFS's bit-mask filters (ISCA'15, Section 2.1 and
// Section 3, Figure 2):
//
//   - Sticky: PBFS's one-bit sticky counter. One observed change moves a
//     bit permanently to "changing" until a periodic flash clear.
//   - Standard: the conventional saturating counter of Figure 2(a), with
//     direct to-and-fro transitions between "unchanging" and the first
//     "changing" state.
//   - Biased: the biased two-bit machine of Figure 2(b) that requires two
//     consecutive no-changes after a change to re-enter "unchanging", but
//     only a single change to leave it. Exiting "unchanging" raises the
//     alarm; a change in the intermediate state does not (the paper's
//     deliberate, small coverage loss).
//   - Suppressor: the N-state biased alarm machine of the second-level
//     filter (one per bit position, Section 3.2) and of the squash state
//     machines (one per first-level filter, Section 3.4). It allows an
//     alarm through only after several consecutive no-alarm
//     observations. Package tcam stores these machines as stamps and
//     tests them against Suppressor.
//
// All machines implement ChangeTracker so filters can be parameterized
// for the PBFS/PBFS-biased/FaultHound comparisons and for the
// state-machine ablation benches.
package sm

// Alarm reports whether an observation raised the machine's alarm (a
// change seen while the tracked bit was considered unchanging).
type Alarm bool

// ChangeTracker is a per-bit machine that observes a stream of
// change/no-change events and classifies the bit as changing (wildcard)
// or unchanging (must match the previous value).
type ChangeTracker interface {
	// Observe records whether the bit changed relative to the previous
	// value and reports whether this observation raises an alarm.
	Observe(changed bool) Alarm
	// Changing reports whether the bit is currently treated as a
	// wildcard for matching purposes.
	Changing() bool
	// Reset returns the machine to its initial "unchanging" state (used
	// by PBFS's periodic flash clear and by filter replacement).
	Reset()
}

// Sticky is PBFS's one-bit sticky counter: it saturates at "changing"
// upon the first observed change and stays there until Reset.
type Sticky struct {
	changing bool
}

// NewSticky returns a sticky counter in the "unchanging" state.
func NewSticky() *Sticky { return &Sticky{} }

// Observe implements ChangeTracker.
func (s *Sticky) Observe(changed bool) Alarm {
	if !changed {
		return false
	}
	if s.changing {
		return false
	}
	s.changing = true
	return true
}

// Changing implements ChangeTracker.
func (s *Sticky) Changing() bool { return s.changing }

// Reset implements ChangeTracker.
func (s *Sticky) Reset() { s.changing = false }

// Standard is the conventional saturating counter of Figure 2(a): one
// "unchanging" state U and nStates-1 "changing" states C1..Cn with
// symmetric, direct transitions. The alarm fires on the U -> C1 exit.
type Standard struct {
	state   int
	nStates int
}

// NewStandard returns a standard counter with n total states (n >= 2),
// initialized to "unchanging".
func NewStandard(n int) *Standard {
	if n < 2 {
		panic("sm: Standard needs at least 2 states")
	}
	return &Standard{nStates: n}
}

// Observe implements ChangeTracker.
func (s *Standard) Observe(changed bool) Alarm {
	if changed {
		alarm := s.state == 0
		if s.state < s.nStates-1 {
			s.state++
		}
		return Alarm(alarm)
	}
	if s.state > 0 {
		s.state--
	}
	return false
}

// Changing implements ChangeTracker.
func (s *Standard) Changing() bool { return s.state > 0 }

// Reset implements ChangeTracker.
func (s *Standard) Reset() { s.state = 0 }

// Biased is the biased state machine of Figure 2(b). A change from any
// state moves directly to the deepest "changing" state; Depth consecutive
// no-changes are required to re-enter "unchanging". Only the exit from
// "unchanging" raises the alarm, so a change observed in an intermediate
// state is absorbed silently. The paper uses Depth = 2 ("two-bit"); its
// Section 3 notes that a three-deep machine drops coverage from ~80% to
// ~60%, which the ablation bench reproduces.
type Biased struct {
	// state 0 = unchanging; state k (1..Depth) = k no-changes still
	// needed to reach unchanging.
	state int
	depth int
}

// NewBiased returns a biased machine requiring depth consecutive
// no-changes after a change (depth >= 1), initialized to "unchanging".
func NewBiased(depth int) *Biased {
	if depth < 1 {
		panic("sm: Biased needs depth >= 1")
	}
	return &Biased{depth: depth}
}

// Observe implements ChangeTracker.
func (b *Biased) Observe(changed bool) Alarm {
	if changed {
		alarm := b.state == 0
		b.state = b.depth
		return Alarm(alarm)
	}
	if b.state > 0 {
		b.state--
	}
	return false
}

// Changing implements ChangeTracker.
func (b *Biased) Changing() bool { return b.state > 0 }

// Reset implements ChangeTracker.
func (b *Biased) Reset() { b.state = 0 }

// Depth returns the configured no-change run length.
func (b *Biased) Depth() int { return b.depth }

// Suppressor is the N-state biased alarm machine of Sections 3.2 and
// 3.4. It is observed once per replay trigger: participated=true when
// the tracked entity (a bit position for the second-level filter, a
// first-level filter for the squash machines) raised or matched the
// trigger. A participation is allowed through only when the machine has
// seen Quiet consecutive non-participations; any participation re-arms
// the full quiet requirement. With 8 states the paper requires 7
// consecutive no-alarms. The TCAM keeps these machines as stamps (see
// tcam.TCAM); this type is the step-by-step reference they are tested
// against.
type Suppressor struct {
	state  int // 0 = fully quiet (allow); >0 = recently alarmed
	states int
}

// NewSuppressor returns a suppressor with n states (n >= 2): after a
// participation, n-1 consecutive non-participations are needed before
// the next participation is allowed through.
func NewSuppressor(n int) *Suppressor {
	if n < 2 {
		panic("sm: Suppressor needs at least 2 states")
	}
	return &Suppressor{states: n}
}

// Observe records one trigger-time observation and reports whether a
// participation is allowed through (i.e., not suppressed). For
// participated=false it always returns false.
func (s *Suppressor) Observe(participated bool) (allowed bool) {
	if participated {
		allowed = s.state == 0
		s.state = s.states - 1
		return allowed
	}
	if s.state > 0 {
		s.state--
	}
	return false
}

// Quiet reports whether the machine would currently allow a
// participation through.
func (s *Suppressor) Quiet() bool { return s.state == 0 }

// Reset returns the suppressor to the fully quiet state.
func (s *Suppressor) Reset() { s.state = 0 }

// States returns the configured state count.
func (s *Suppressor) States() int { return s.states }
