// Package branch implements the front-end branch prediction hardware of
// the simulated core: a gshare direction predictor, a branch target
// buffer, and a return-address stack. Misprediction recovery (the full
// pipeline rollback whose ~100-200-instruction penalty the paper's
// replay mechanism avoids paying for false positives) is handled by the
// pipeline; this package only predicts and learns.
package branch

// Config sizes the predictor structures.
type Config struct {
	// GshareBits is the log2 of the pattern history table size.
	GshareBits uint
	// BTBEntries is the number of direct-mapped BTB entries.
	BTBEntries int
	// RASEntries is the return-address stack depth.
	RASEntries int
}

// DefaultConfig returns a predictor sized for the Table-2 core.
func DefaultConfig() Config {
	return Config{GshareBits: 14, BTBEntries: 2048, RASEntries: 16}
}

// Predictor is the combined direction/target predictor. One instance
// exists per SMT context (history is thread-private).
type Predictor struct {
	cfg     Config
	history uint64
	pht     []uint8 // 2-bit saturating counters
	btb     []btbEntry
	ras     []uint64
	rasTop  int
	// sh folds every mutating interaction (predictions, training,
	// recoveries) into a running stream tag: two predictors that started
	// equal and carry equal tags have processed the same sequence and
	// hold equal tables. The reconvergence digest compares tags instead
	// of walking the PHT/BTB.
	sh uint64

	Lookups     uint64
	Mispredicts uint64
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// New creates a predictor.
func New(cfg Config) *Predictor {
	return &Predictor{
		cfg: cfg,
		pht: make([]uint8, 1<<cfg.GshareBits),
		btb: make([]btbEntry, cfg.BTBEntries),
		ras: make([]uint64, cfg.RASEntries),
	}
}

// Prediction is the front end's guess for one branch.
type Prediction struct {
	Taken  bool
	Target uint64
	// phtIndex is remembered so Update trains the same counter the
	// prediction read even after later history updates.
	phtIndex uint64
	// historyBefore snapshots the global history before this branch's
	// speculative bit, so misprediction recovery can rebuild the
	// history with the resolved outcome.
	historyBefore uint64
}

func (p *Predictor) phtIndex(pc uint64) uint64 {
	mask := uint64(1)<<p.cfg.GshareBits - 1
	return (pc ^ p.history) & mask
}

// foldStream mixes one interaction into the stream tag.
func (p *Predictor) foldStream(x uint64) {
	p.sh = mix64(x ^ p.sh)
}

// StreamTag returns the interaction-stream fingerprint.
func (p *Predictor) StreamTag() uint64 { return p.sh }

// Fold mixes every prediction field (including the unexported recovery
// state) into h — used by stream and structural hashing outside the
// package.
func (pr Prediction) Fold(h uint64) uint64 {
	h = mix64(h ^ (pr.Target<<1 | b2u(pr.Taken)))
	h = mix64(h ^ pr.phtIndex)
	h = mix64(h ^ pr.historyBefore)
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// PredictCond predicts a conditional branch at pc.
func (p *Predictor) PredictCond(pc uint64) Prediction {
	p.foldStream(pc<<3 | 1)
	p.Lookups++
	i := p.phtIndex(pc)
	taken := p.pht[i] >= 2
	pred := Prediction{Taken: taken, phtIndex: i, historyBefore: p.history}
	if taken {
		if e := p.btb[pc%uint64(len(p.btb))]; e.valid && e.pc == pc {
			pred.Target = e.target
		} else {
			// No target known: predict not-taken (fall through).
			pred.Taken = false
		}
	}
	// Speculatively update history with the prediction; recovery on
	// misprediction is modeled by RestoreHistory.
	p.history = p.history<<1 | b2u(pred.Taken)
	return pred
}

// PredictJump predicts an unconditional direct or indirect jump at pc.
// isCall pushes the return address; isRet pops the RAS.
func (p *Predictor) PredictJump(pc uint64, isCall, isRet bool) Prediction {
	p.foldStream(pc<<5 | b2u(isCall)<<4 | b2u(isRet)<<3 | 2)
	p.Lookups++
	if isCall {
		p.push(pc + 1)
	}
	if isRet && p.rasTop > 0 {
		p.rasTop--
		return Prediction{Taken: true, Target: p.ras[p.rasTop]}
	}
	if e := p.btb[pc%uint64(len(p.btb))]; e.valid && e.pc == pc {
		return Prediction{Taken: true, Target: e.target}
	}
	// Unknown target: predict fall-through; the pipeline will redirect
	// at execute (counted as a misprediction).
	return Prediction{Taken: false}
}

func (p *Predictor) push(addr uint64) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = addr
		p.rasTop++
		return
	}
	// Overflow: shift down (oldest entry lost).
	copy(p.ras, p.ras[1:])
	p.ras[len(p.ras)-1] = addr
}

// Update trains the predictor with the resolved outcome of a branch
// previously predicted with pred. mispredicted records statistics and
// repairs the speculative history bit.
func (p *Predictor) Update(pc uint64, pred Prediction, taken bool, target uint64, cond bool) {
	p.foldStream(pc<<3 | 3)
	p.foldStream(pred.Fold(target<<2 | b2u(taken)<<1 | b2u(cond)))
	if cond {
		c := p.pht[pred.phtIndex]
		if taken && c < 3 {
			c++
		} else if !taken && c > 0 {
			c--
		}
		p.pht[pred.phtIndex] = c
	}
	if taken {
		p.btb[pc%uint64(len(p.btb))] = btbEntry{pc: pc, target: target, valid: true}
	}
	if pred.Taken != taken || (taken && pred.Target != target) {
		p.Mispredicts++
	}
}

// RecoverMispredict rebuilds the global history after a misprediction:
// everything fetched past the branch is squashed, so the history
// becomes the branch's pre-prediction history plus its resolved
// outcome. Call after Update.
func (p *Predictor) RecoverMispredict(pred Prediction, taken bool) {
	p.foldStream((pred.historyBefore<<1|b2u(taken))<<3 | 4)
	p.history = pred.historyBefore<<1 | b2u(taken)
}

// History returns the current global history register.
func (p *Predictor) History() uint64 { return p.history }

// SetHistory overwrites the global history (full-pipeline rollback
// restores the architectural history).
func (p *Predictor) SetHistory(h uint64) {
	p.foldStream(h<<3 | 5)
	p.history = h
}

// MispredictRate returns mispredictions per lookup.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

// CloneInto returns a deep copy of p in d, reusing d's table storage
// (the snapshot-arena path), or in a new predictor when d is nil.
func (p *Predictor) CloneInto(d *Predictor) *Predictor {
	if d == nil {
		d = &Predictor{}
	}
	pht, btb, ras := d.pht, d.btb, d.ras
	*d = *p
	d.pht = append(pht[:0], p.pht...)
	d.btb = append(btb[:0], p.btb...)
	d.ras = append(ras[:0], p.ras...)
	return d
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
