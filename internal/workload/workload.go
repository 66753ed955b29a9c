// Package workload provides the Table-1 benchmark suite as synthetic
// kernels in the simulator's ISA. The paper runs SPEC CPU2006, three
// commercial workloads, and SPLASH-2 binaries on GEMS/Opal; those
// binaries cannot run on a from-scratch simulator, so each benchmark is
// substituted by a kernel tuned to its published character — memory
// intensity, branch behavior, and, most importantly for FaultHound, the
// value-locality structure of its load/store address and store value
// streams (DESIGN.md, substitution table).
//
// Every kernel runs an endless outer loop so warmup and measurement
// windows never exhaust the program; experiments bound runs by
// committed-instruction counts.
package workload

import (
	"fmt"
	"sync"

	"faulthound/internal/prog"
	"faulthound/internal/stats"
)

// Suite names group the benchmarks as in Table 1.
const (
	SuiteSPECint    = "SPECint"
	SuiteSPECfp     = "SPECfp"
	SuiteCommercial = "Commercial"
	SuiteSPLASH     = "SPLASH-2"
)

// Benchmark is one Table-1 entry.
type Benchmark struct {
	Name  string
	Suite string
	// Paper documents the Table-1 run/input description for the
	// benchmark this kernel substitutes.
	Paper string
	// SegBytes is the per-thread data segment size; it sets the cache
	// behavior class (fits-in-L1 / fits-in-L2 / misses-to-memory).
	SegBytes uint64
	// Build constructs the kernel with its data segment at base, using
	// seed for deterministic data initialization.
	Build func(base uint64, seed uint64) *prog.Program
	// shared marks a benchmark whose Name alone identifies the programs
	// Build makes, so Programs builds each one once per process: true
	// for the benchmarks this package returns by name or canonical
	// spec, false for one built elsewhere and for a replayed stream,
	// whose program comes from a file.
	shared bool
}

// registry holds all benchmarks in Table-1 order.
var registry = []Benchmark{
	{Name: "perl", Suite: SuiteSPECint, Paper: "400.perlbench: 50M instructions, SimPoint region", SegBytes: 64 << 10, Build: buildPerl},
	{Name: "bzip2", Suite: SuiteSPECint, Paper: "401.bzip2: 50M instructions, SimPoint region", SegBytes: 32 << 10, Build: buildBzip2},
	{Name: "mcf", Suite: SuiteSPECint, Paper: "429.mcf: 50M instructions, SimPoint region", SegBytes: 512 << 10, Build: buildMcf},
	{Name: "astar", Suite: SuiteSPECint, Paper: "473.astar: 50M instructions, SimPoint region", SegBytes: 128 << 10, Build: buildAstar},
	{Name: "dealII", Suite: SuiteSPECfp, Paper: "447.dealII: 50M instructions, SimPoint region", SegBytes: 64 << 10, Build: buildDealII},
	{Name: "gamess", Suite: SuiteSPECfp, Paper: "416.gamess: 50M instructions, SimPoint region", SegBytes: 16 << 10, Build: buildGamess},
	{Name: "leslie3d", Suite: SuiteSPECfp, Paper: "437.leslie3d: 50M instructions, SimPoint region", SegBytes: 256 << 10, Build: buildLeslie3d},
	{Name: "apache", Suite: SuiteCommercial, Paper: "Apache: 500 tx, 20,000 files, 45,000 clients", SegBytes: 1 << 20, Build: buildApache},
	{Name: "specjbb", Suite: SuiteCommercial, Paper: "SPECjbb: 1000 tx, 90 warehouses", SegBytes: 1 << 20, Build: buildSpecjbb},
	{Name: "oltp", Suite: SuiteCommercial, Paper: "OLTP: 40 tx, 25000 warehouses, 300 connections", SegBytes: 2 << 20, Build: buildOLTP},
	{Name: "ocean", Suite: SuiteSPLASH, Paper: "Ocean: full run, 64x64 grid", SegBytes: 64 << 10, Build: buildOcean},
	{Name: "raytrace", Suite: SuiteSPLASH, Paper: "Raytrace: full run, 64 MB, car.env", SegBytes: 128 << 10, Build: buildRaytrace},
	{Name: "volrend", Suite: SuiteSPLASH, Paper: "Volrend: full run, inputs/head", SegBytes: 128 << 10, Build: buildVolrend},
	{Name: "water-nsq", Suite: SuiteSPLASH, Paper: "Water-nsquared: 1 time step, 216 molecules", SegBytes: 32 << 10, Build: buildWaterNsq},
}

func init() {
	for i := range registry {
		registry[i].shared = true
	}
}

// All returns every benchmark in Table-1 order.
func All() []Benchmark {
	return append([]Benchmark(nil), registry...)
}

// Names returns all benchmark names in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	return out
}

// Get returns the benchmark with the given name, searching the Table-1
// registry and then the micro-workload suite.
func Get(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range Micro() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Suites returns the suite names in Table-1 order.
func Suites() []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range registry {
		if !seen[b.Suite] {
			seen[b.Suite] = true
			out = append(out, b.Suite)
		}
	}
	return out
}

// BySuite groups benchmarks by suite.
func BySuite() map[string][]Benchmark {
	out := map[string][]Benchmark{}
	for _, b := range registry {
		out[b.Suite] = append(out[b.Suite], b)
	}
	return out
}

// Programs builds `threads` copies of benchmark b with disjoint,
// adjacent data segments (one address space per SMT context). A
// benchmark this package resolved is built once per process for each
// data base and seed: every later call returns the same programs, and
// with them their recorded warm-up streams (prog.Program.VisitMemOps).
// Programs are never written after they are built, so sharing them is
// safe.
func Programs(b Benchmark, threads int, seed uint64) []*prog.Program {
	out := make([]*prog.Program, threads)
	for i := 0; i < threads; i++ {
		base := prog.DefaultDataBase + uint64(i)*b.SegBytes
		if b.shared {
			out[i] = builtOnce(b, base, seed+uint64(i))
		} else {
			out[i] = b.Build(base, seed+uint64(i))
		}
	}
	return out
}

// built holds every program Programs has built. Entries are never
// evicted: their number is bounded by the distinct benchmarks a process
// runs, as with fault.PreparedCache.
var built struct {
	mu sync.Mutex
	m  map[buildKey]*prog.Program
}

type buildKey struct {
	name       string
	base, seed uint64
}

// builtOnce returns b's program at (base, seed), building it on the
// first call. Concurrent first calls may each build it; all of them
// return the one stored first.
func builtOnce(b Benchmark, base, seed uint64) *prog.Program {
	k := buildKey{b.Name, base, seed}
	built.mu.Lock()
	p := built.m[k]
	built.mu.Unlock()
	if p != nil {
		return p
	}
	p = b.Build(base, seed)
	built.mu.Lock()
	defer built.mu.Unlock()
	if q := built.m[k]; q != nil {
		return q
	}
	if built.m == nil {
		built.m = make(map[buildKey]*prog.Program)
	}
	built.m[k] = p
	return p
}

// permutationCycle writes a single-cycle permutation over words
// [first, first+count) of the segment, for pointer-chasing kernels:
// word i holds the address of the next element. The permutation is a
// deterministic shuffle from seed.
func permutationCycle(b *prog.Builder, firstWord, count uint64, seed uint64) {
	rng := stats.NewRNG(seed)
	idx := make([]uint64, count)
	for i := range idx {
		idx[i] = uint64(i)
	}
	for i := int(count) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	// Link the shuffled sequence into one cycle of absolute addresses.
	for k := uint64(0); k < count; k++ {
		from := firstWord + idx[k]
		to := firstWord + idx[(k+1)%count]
		b.Word(from*8, b.DataBase()+to*8)
	}
}
