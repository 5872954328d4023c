package main

import (
	"fmt"
	"math/rand"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/machinecode"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// Workload sizes. They are fixed here, not per run, so every run of a
// workload does the same work and only the seed changes the inputs.
const (
	rmtPackets = 50000 // per clean Table-1 job: dfarm's default, the paper's workload
	rmtMutants = 8     // single-hole mutants added to rmt-fuzz and verify

	// mutantPackets is the budget of a mutant job. It is below the
	// default because a killed mutant costs in proportion to its
	// mismatching PHVs, and which mutants die, and how often, depends on
	// the seed: at 50000 PHVs per mutant, peak RSS ranged 17-62 MB and
	// throughput 0.96-1.34M PHV/s over ten seeds on a 2-vCPU Xeon VM.
	mutantPackets = 1000

	drmtPackets = 100000
	drmtBadPkts = 5000 // the injected dRMT miscompile job

	// mutantConflicts is the solver budget of each mutant proof cell. A
	// mutant that is equivalent, or hard to refute, at a width ends as an
	// unknown cell after this many conflicts instead of dominating the
	// campaign; clean Table-1 cells have no budget and must prove.
	mutantConflicts = 300
)

// matrix is one offline workload's job list plus what the checks need to
// know about each job.
type matrix struct {
	jobs  []campaign.Job
	isMut map[string]bool // job name -> injected mutant
}

func newMatrix() *matrix { return &matrix{isMut: map[string]bool{}} }

func (m *matrix) add(jobs []campaign.Job, mutant bool) {
	for _, j := range jobs {
		m.jobs = append(m.jobs, j)
		if mutant {
			m.isMut[j.Name] = true
		}
	}
}

// Mutant is one single-hole mutant of a Table-1 benchmark's machine code:
// pair Pair changed from From to To.
type Mutant struct {
	Bench *spec.Benchmark
	Pair  string
	From  int64
	To    int64
	Code  *machinecode.Program
}

// Name labels the mutant in job names.
func (m *Mutant) Name() string { return fmt.Sprintf("%s=%d->%d", m.Pair, m.From, m.To) }

// genMutants derives n single-hole mutants from the benchmarks' machine
// code. It is a pure function of (seed, machine code): mutant i mutates
// benchmark (offset+i) mod len(benches), so every run injects the same
// number of mutants per program; the pair and the ±1 change are drawn from
// the seed. A candidate is kept only if it is new and still builds at the
// compiled level, because a mutant that fails to build would be an
// errored job, not a compiler bug for the fuzzer to find.
func genMutants(seed int64, benches []*spec.Benchmark, n int) ([]Mutant, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("mutants: no benchmarks")
	}
	rng := rand.New(rand.NewSource(seed))
	offset := rng.Intn(len(benches))
	seen := map[string]bool{}
	var out []Mutant
	for i := 0; len(out) < n; i++ {
		bm := benches[(offset+i)%len(benches)]
		code, err := bm.MachineCode()
		if err != nil {
			return nil, err
		}
		cspec, err := bm.Spec()
		if err != nil {
			return nil, err
		}
		pairs := code.Pairs()
		found := false
		for try := 0; try < 64 && !found; try++ {
			p := pairs[rng.Intn(len(pairs))]
			to := p.Value + 1
			if rng.Intn(2) == 0 {
				to = p.Value - 1
			}
			key := bm.Name + "/" + p.Name + fmt.Sprint(to)
			if to < 0 || seen[key] {
				continue
			}
			mc := code.Clone()
			mc.Set(p.Name, to)
			if _, err := core.Build(cspec, mc, core.Compiled); err != nil {
				continue
			}
			seen[key] = true
			out = append(out, Mutant{Bench: bm, Pair: p.Name, From: p.Value, To: to, Code: mc})
			found = true
		}
		if !found {
			return nil, fmt.Errorf("mutants: no buildable single-hole mutant of %s", bm.Name)
		}
	}
	return out, nil
}

// rmtFuzzMatrix is the rmt-fuzz workload: the 12 Table-1 programs at the
// compiled level under uniform and boundary traffic, with the seeded
// mutants under uniform traffic interleaved among them, one after every
// len(clean)/len(mutants) clean jobs. Rows stream in matrix order, so a
// failing row can arrive while the clean jobs are still running, and
// campaign.first_cex_s is not just the time the clean jobs take. The
// first row is always a clean job's, so first_row_s.p50 does not depend
// on whether the seed's first mutant is killed.
func rmtFuzzMatrix(seed int64) (*matrix, error) {
	m := newMatrix()
	clean, err := campaign.Matrix(spec.All(), []core.OptLevel{core.Compiled},
		[]sim.TrafficMode{sim.TrafficUniform, sim.TrafficBoundary}, []int64{seed}, rmtPackets)
	if err != nil {
		return nil, err
	}
	muts, err := genMutants(seed, spec.All(), rmtMutants)
	if err != nil {
		return nil, err
	}
	every := max(1, len(clean)/len(muts))
	for i := range clean {
		m.add(clean[i:i+1], false)
		if k := (i+1)/every - 1; (i+1)%every == 0 && k < len(muts) {
			job, err := mutantFuzzJob(&muts[k], seed)
			if err != nil {
				return nil, err
			}
			m.add([]campaign.Job{job}, true)
		}
	}
	return m, nil
}

// mutantFuzzJob is the compiled-level fuzz job of one mutant, built like a
// campaign.Matrix job over the mutated machine code.
func mutantFuzzJob(mu *Mutant, seed int64) (campaign.Job, error) {
	bm := mu.Bench
	cspec, err := bm.Spec()
	if err != nil {
		return campaign.Job{}, err
	}
	containers, err := bm.CompareContainers()
	if err != nil {
		return campaign.Job{}, err
	}
	return campaign.Job{
		Name: fmt.Sprintf("rmt/%s/%s/seed=%d/mutant=%s", bm.Name, core.Compiled, seed, mu.Name()),
		Target: &campaign.PipelineTarget{
			Spec:            cspec,
			Code:            mu.Code,
			Level:           core.Compiled,
			NewSpec:         bm.SimSpec,
			Containers:      containers,
			MaxInput:        bm.MaxInput,
			Traffic:         sim.TrafficUniform,
			SpecFingerprint: bm.Fingerprint(),
		},
		Seed:    seed,
		Packets: mutantPackets,
	}, nil
}

// drmtFuzzMatrix is the drmt-fuzz workload: one ISA program with an
// add→sub miscompile (drmt.MiscompileALUAdd), first for the same reason
// as rmt-fuzz's mutants, then every embedded dRMT program under uniform
// and boundary traffic.
func drmtFuzzMatrix(seed int64) (*matrix, error) {
	m := newMatrix()
	bad, err := drmtMiscompileJob(seed)
	if err != nil {
		return nil, err
	}
	m.add([]campaign.Job{bad}, true)
	clean, err := campaign.DRMTMatrix(drmt.Benchmarks(), nil,
		[]drmt.TrafficMode{drmt.TrafficUniform, drmt.TrafficBoundary}, []int64{seed}, drmtPackets)
	if err != nil {
		return nil, err
	}
	m.add(clean, false)
	return m, nil
}

// drmtMiscompileJob is l2l3 with its 8-bit add (the ttl decrement)
// flipped to a subtract. The program and width are fixed rather than
// drawn from the seed, so every run pays the same failing-path cost and
// only the traffic changes with the seed.
func drmtMiscompileJob(seed int64) (campaign.Job, error) {
	bm, err := drmt.LookupBenchmark("l2l3")
	if err != nil {
		return campaign.Job{}, err
	}
	prog, err := bm.Program()
	if err != nil {
		return campaign.Job{}, err
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		return campaign.Job{}, err
	}
	isa, err := drmt.Assemble(prog)
	if err != nil {
		return campaign.Job{}, err
	}
	bad, err := drmt.MiscompileALUAdd(isa, 8)
	if err != nil {
		return campaign.Job{}, err
	}
	return campaign.Job{
		Name: fmt.Sprintf("drmt/%s/seed=%d/miscompile=add8", bm.Name, seed),
		Target: &campaign.DRMTTarget{
			Program:  prog,
			Entries:  entries,
			HW:       bm.HW,
			ISA:      bad,
			MaxInput: bm.MaxInput,
		},
		Seed:    seed,
		Packets: drmtBadPkts,
	}, nil
}

// verifyMatrix is the verify workload: the default proof grid over every
// Table-1 program, plus the same grid over the rmt-fuzz mutants.
func verifyMatrix(seed int64) (*matrix, error) {
	m := newMatrix()
	clean, err := campaign.VerifyMatrix(spec.All(), nil, nil, []int64{seed}, 0)
	if err != nil {
		return nil, err
	}
	m.add(clean, false)
	muts, err := genMutants(seed, spec.All(), rmtMutants)
	if err != nil {
		return nil, err
	}
	for i := range muts {
		mu := &muts[i]
		// The mutant's proof job is the clean job of its benchmark with
		// the machine code swapped.
		jobs, err := campaign.VerifyMatrix([]*spec.Benchmark{mu.Bench}, nil, nil, []int64{seed}, mutantConflicts)
		if err != nil {
			return nil, err
		}
		vt := *jobs[0].Target.(*campaign.VerifyTarget)
		vt.Code = mu.Code
		jobs[0].Target = &vt
		jobs[0].Name += "/mutant=" + mu.Name()
		m.add(jobs[:1], true)
	}
	return m, nil
}
