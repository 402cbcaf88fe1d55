package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"pfcache/internal/service"
	"pfcache/internal/workload"
)

// Request kinds a client sends.
const (
	kindSchedule = "schedule"
	kindCreate   = "session-create"
	kindExtend   = "extend"
	kindClose    = "session-close"
	kindSweep    = "sweep"
)

// op is one HTTP request of a workload, built (body included) before any
// timing starts.
type op struct {
	kind   string
	method string
	path   string
	body   []byte

	// sched is the decoded schedule request (kindSchedule) and ref the index
	// of its distinct instance: every op with the same ref must receive the
	// same bytes, which must equal the reference body of that request.
	sched *service.ScheduleRequest
	ref   int

	// sess is the session an op belongs to (session kinds); step counts the
	// extends applied so far including this one.
	sess *sessionPlan
	step int
}

// sessionPlan is one scripted session: create over a base trace, extend one
// request at a time, close.
type sessionPlan struct {
	id     string
	create *service.SessionCreateRequest
	steps  []int // the appended block per extend
}

// fullSeq returns the session's trace after its first `steps` extends.
func (p *sessionPlan) fullSeq(steps int) []int {
	out := append([]int(nil), p.create.Seq...)
	return append(out, p.steps[:steps]...)
}

// script is what a client does in one go: a single request, or a whole
// session from create to close.
type script []*op

// workloadDef describes one workload: where its traffic goes, its warm-up,
// and the request lists its clients draw from.
type workloadDef struct {
	name     string
	why      string
	viaFront bool
	primary  string // the request kind the end-to-end metrics describe
	// clients is the number of closed-loop clients, each on one connection.
	clients int

	// warm and timed are drawn in order by the clients through a shared
	// cursor.  The timed list is sized for the longest run the flags allow.
	warm  []script
	timed []script

	// sweep, when set, makes the last client loop this sweep (pausing twice
	// the last sweep's duration in between) instead of drawing scripts.
	sweep *service.SweepRequest
	// sweepWarm is the number of sweeps of the warm-up.
	sweepWarm int
}

// fixedSeed seeds what every run shares, whatever its --seed: the warm-ups
// that need not prime a cache (so every run's set-up does the same work), the
// lp-cold instances, the front-mix pool's make-up and the session base
// traces.  A run's seed draws the rest: the front-mix traces, the session
// extensions and the order of requests.  Warm-up requests get refs and
// session numbers below the timed ones, so they never coincide with a timed
// request.
const fixedSeed = 7919

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"lp-cold", "front-mix", "session-extend", "sweep-contention"}

// benchmarkWorkloads are the workloads BENCHMARK.json lists.  front-mix and
// session-extend are left out while the program fails their answer checks
// on every seed: a re-solve of an lp-optimal request whose model a shard
// still holds serves other bytes than a cold solve, and a session's warm
// re-solve can round to another stall than the cold solve of the same trace.
// Both still run by name, name each wrong answer and exit 1.
var benchmarkWorkloads = []string{"lp-cold", "sweep-contention"}

// buildWorkload builds the named workload's request lists from seed.
// seconds sizes the timed lists so the clients never run dry.
func buildWorkload(name string, seed int64, seconds int) (*workloadDef, error) {
	switch name {
	case "lp-cold":
		return lpColdWorkload(seed, seconds), nil
	case "front-mix":
		return frontMixWorkload(seed, seconds), nil
	case "session-extend":
		return sessionWorkload(seed, seconds), nil
	case "sweep-contention":
		return sweepWorkload(seed, seconds), nil
	}
	return nil, fmt.Errorf("servebench: unknown workload %q (have %v)", name, workloadNames)
}

// mustJSON marshals a request body built by this package.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("servebench: marshalling a generated request: %v", err))
	}
	return b
}

// scheduleOp wraps a schedule request as a POST /v1/schedule op.
func scheduleOp(req *service.ScheduleRequest, ref int) *op {
	return &op{kind: kindSchedule, method: "POST", path: "/v1/schedule",
		body: mustJSON(req), sched: req, ref: ref}
}

// lpShape is the size of one lp-cold request; the trace itself is seeded.
type lpShape struct{ disks, n, blocks, k, f int }

// lpColdShapes are the shapes of one lp-cold block: D in {1, 2, 3} by n in
// 22, 24, ..., 48, each with a block count in [8, 14], k in [4, 7] and F in
// [3, 5] drawn once from a fixed seed.
func lpColdShapes() []lpShape {
	rng := rand.New(rand.NewPCG(fixedSeed, 3))
	var out []lpShape
	for d := 1; d <= 3; d++ {
		for n := 22; n <= 48; n += 2 {
			out = append(out, lpShape{disks: d, n: n, blocks: 8 + rng.IntN(7), k: 4 + rng.IntN(4), f: 3 + rng.IntN(3)})
		}
	}
	return out
}

// lpColdList lists count lp-optimal requests, block by block.  Block b holds
// every shape once, each over its own Zipf trace, and rng orders the block.
// Request i of block b has ref ref0 + b·len(shapes) + i, and its trace is
// seeded from fixedSeed and that ref, so no two refs share an instance and
// the response cache never hits.
//
// The instances come from the fixed seed, and a run's seed only orders them.
// So every run asks for the same instances, up to the last block it reaches.
// The solve time of one shape varies with its trace by a coefficient of
// variation near 1, so while each run drew its own traces, p50 moved by up
// to a fifth from seed to seed.
func lpColdList(rng *rand.Rand, ref0, count int) []script {
	shapes := lpColdShapes()
	out := make([]script, 0, count)
	for block := 0; len(out) < count; block++ {
		for _, i := range rng.Perm(len(shapes)) {
			if len(out) == count {
				break
			}
			sh := shapes[i]
			ref := ref0 + block*len(shapes) + i
			req := &service.ScheduleRequest{
				Strategy: "lp-optimal",
				Workload: &service.WorkloadSpec{Kind: "zipf", N: sh.n, Blocks: sh.blocks, S: 1.1,
					Seed: fixedSeed*1_000_003 + int64(ref)},
				K: sh.k, F: sh.f, Disks: sh.disks,
			}
			out = append(out, script{scheduleOp(req, ref)})
		}
	}
	return out
}

// Maximum request rates the timed lists are sized for (well above what two
// clients reach on small machines).
const (
	lpColdMaxRate  = 200  // requests/s
	frontMaxRate   = 8000 // requests/s
	sessionMaxRate = 40   // sessions/s
)

func lpColdWorkload(seed int64, seconds int) *workloadDef {
	// The warm-up is part of one block; the timed list starts at the next
	// block's refs, so it never repeats a warm-up instance.
	//
	// One client: with two, a request whose fingerprint picks the shard that
	// is busy with the other client's request waits for it, while the other
	// shard idles.  Behind the heaviest solves (0.3-0.5 s) that wait nearly
	// doubled p50, and since a run holds only a few dozen of them, p50 moved by
	// IQR/median 0.22 between seeds at a steady CPU cost per request.  With
	// one client the solve is nearly the whole latency.
	const warm = 8
	return &workloadDef{
		name:    "lp-cold",
		why:     "distinct lp-optimal instances direct to one pcserve: the LP solve is nearly all of each request",
		primary: kindSchedule,
		clients: 1,
		warm:    lpColdList(rand.New(rand.NewPCG(fixedSeed, 1)), 0, warm),
		timed:   lpColdList(rand.New(rand.NewPCG(uint64(seed), 1)), len(lpColdShapes()), lpColdMaxRate*seconds),
	}
}

func sweepWorkload(seed int64, seconds int) *workloadDef {
	w := lpColdWorkload(seed, seconds)
	w.name = "sweep-contention"
	w.why = "lp-cold traffic beside /v1/sweep runs that hold the sweep lock a third of the time"
	w.clients = 2
	w.sweep = &service.SweepRequest{IDs: sweptIDs(), Workers: 1}
	w.sweepWarm = 1
	return w
}

// sweptIDs is the experiment suite minus E7 and R1, whose multi-second
// runtimes would make each sweep as long as a whole benchmark run.
func sweptIDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "A1", "A2"}
}

// Front-mix pool shape: the distinct working set is larger than one
// backend's 1024-entry response cache and smaller than the fleet's 3×1024.
const (
	frontPool    = 2400
	frontZipfS   = 1.1
	frontWarmReq = 3000
)

// Greedy strategies of the front-mix pool.
var (
	singleStrategies   = []string{"aggressive", "conservative", "combination", "delay:auto", "demand-lru"}
	parallelStrategies = []string{"aggressive", "conservative", "demand"}
)

// Strategy classes of the front-mix pool.
const (
	classOpt = iota
	classLP
	classSingle
	classParallel
)

// frontClasses is one 50-item cycle of strategy classes — 3 opt, 3
// lp-optimal, 22 single-disk greedy, 22 parallel greedy — in an order
// shuffled by rng, so the hottest ranks hold a mix rather than a run of one
// class.
func frontClasses(rng *rand.Rand) []int {
	var out []int
	for class, count := range []int{3, 3, 22, 22} {
		for j := 0; j < count; j++ {
			out = append(out, class)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// frontMixItem draws pool item i of the given class: greedy strategies on
// mid-sized instances, or small exact (opt) and LP requests.  The instance
// is given as a generated workload, an explicit sequence or the pfcache text
// format in turn, and every fourth item asks for the fetch list.  rng draws
// the strategy and sizes; traceSeed the trace.
func frontMixItem(rng *rand.Rand, traceSeed int64, i, class int) *service.ScheduleRequest {
	var strategy string
	var n, blocks, k, f, disks int
	switch class {
	case classOpt:
		strategy = "opt"
		n, blocks, k, f, disks = 12+rng.IntN(9), 6+rng.IntN(3), 3+rng.IntN(2), 3+rng.IntN(2), 1+rng.IntN(2)
	case classLP:
		strategy = "lp-optimal"
		n, blocks, k, f, disks = 12+rng.IntN(11), 6+rng.IntN(4), 3+rng.IntN(3), 3+rng.IntN(2), 2+rng.IntN(2)
	case classSingle:
		strategy = singleStrategies[rng.IntN(len(singleStrategies))]
		n, blocks, k, f, disks = 32+rng.IntN(33), 8+rng.IntN(9), 4+rng.IntN(5), 3+rng.IntN(4), 1
	default:
		strategy = parallelStrategies[rng.IntN(len(parallelStrategies))]
		n, blocks, k, f, disks = 32+rng.IntN(33), 8+rng.IntN(9), 4+rng.IntN(5), 3+rng.IntN(4), 2+rng.IntN(2)
	}
	req := &service.ScheduleRequest{Strategy: strategy, IncludeSchedule: i%4 == 0}
	spec := &service.WorkloadSpec{Kind: "zipf", N: n, Blocks: blocks, S: 1.1, Seed: traceSeed}
	switch i % 3 {
	case 0:
		req.Workload, req.K, req.F, req.Disks = spec, k, f, disks
	case 1:
		for _, b := range workload.Zipf(n, blocks, spec.S, traceSeed) {
			req.Seq = append(req.Seq, int(b))
		}
		req.K, req.F, req.Disks = k, f, disks
	default:
		seq := workload.Zipf(n, blocks, spec.S, traceSeed)
		req.Instance = workload.Marshal(workload.Instance(seq, k, f, disks, workload.AssignStripe, 0))
	}
	return req
}

func frontMixWorkload(seed int64, seconds int) *workloadDef {
	// Item i is the i-th most popular.  Its class, strategy, sizes and
	// instance source come from a fixed seed, so every run's traffic has the
	// same make-up at every popularity rank — the hit path's cost follows the
	// source and size of the few hottest items.  The run's seed draws the
	// traces and the request stream.
	shapes := rand.New(rand.NewPCG(fixedSeed, 2))
	classes := frontClasses(shapes)
	pool := make([]*op, frontPool)
	for i := range pool {
		req := frontMixItem(shapes, seed*1_000_003+int64(i), i, classes[i%len(classes)])
		pool[i] = scheduleOp(req, i)
	}
	draw := func(r *rand.Rand, count int) []script {
		z := rand.NewZipf(r, frontZipfS, 1, frontPool-1)
		out := make([]script, count)
		for i := range out {
			out[i] = script{pool[z.Uint64()]}
		}
		return out
	}
	return &workloadDef{
		name:     "front-mix",
		why:      "mostly greedy requests with Zipf-popular duplicates through pcfront over three backends",
		viaFront: true,
		primary:  kindSchedule,
		clients:  2,
		warm:     draw(rand.New(rand.NewPCG(uint64(seed), 3)), frontWarmReq),
		timed:    draw(rand.New(rand.NewPCG(uint64(seed), 4)), frontMaxRate*seconds),
	}
}

// Session shape: R1's D=2, n=60 scenario (8 blocks, k=4, F=3, striped).
const (
	sessionBaseN  = 60
	sessionBlocks = 8
	sessionK      = 4
	sessionF      = 3
	sessionDisks  = 2
	sessionSteps  = 12
)

// sessionScript draws session i: a uniform base trace, sessionSteps extends
// drawn from the blocks the base trace references, and the close.  The base
// trace of session i comes from a fixed seed, so every run re-plans the same
// traces — how often a warm re-solve falls back to a cold one depends mostly
// on the base trace, and with it a run's extend rate — while the run's seed
// draws the extensions.
func sessionScript(seed int64, i int) script {
	base := workload.Uniform(sessionBaseN, sessionBlocks, fixedSeed*1_000_003+int64(i))
	seq := make([]int, len(base))
	for j, b := range base {
		seq[j] = int(b)
	}
	known := workload.Instance(base, sessionK, sessionF, sessionDisks, workload.AssignStripe, 0).Blocks()
	ext := workload.Uniform(sessionSteps, sessionBlocks, seed*1_000_003+500_000+int64(i))
	p := &sessionPlan{
		id: fmt.Sprintf("bench-%d-%d", seed, i),
		create: &service.SessionCreateRequest{
			ScheduleRequest: service.ScheduleRequest{Strategy: "lp-optimal", Seq: seq,
				K: sessionK, F: sessionF, Disks: sessionDisks},
		},
	}
	p.create.Session = p.id
	for _, b := range ext {
		p.steps = append(p.steps, int(known[int(b)%len(known)]))
	}
	s := script{{kind: kindCreate, method: "POST", path: "/v1/session", body: mustJSON(p.create), sess: p}}
	for j, b := range p.steps {
		s = append(s, &op{kind: kindExtend, method: "POST", path: "/v1/session/" + p.id + "/extend",
			body: mustJSON(&service.SessionExtendRequest{Requests: []int{b}}), sess: p, step: j + 1})
	}
	return append(s, &op{kind: kindClose, method: "DELETE", path: "/v1/session/" + p.id, sess: p, step: len(p.steps)})
}

func sessionWorkload(seed int64, seconds int) *workloadDef {
	const warm = 2
	w := &workloadDef{
		name:     "session-extend",
		why:      "sessions through pcfront extended one request at a time: warm dual re-solves",
		viaFront: true,
		primary:  kindExtend,
		clients:  2,
	}
	for i := 0; i < warm; i++ {
		w.warm = append(w.warm, sessionScript(fixedSeed, i))
	}
	for i := 0; i < sessionMaxRate*seconds; i++ {
		w.timed = append(w.timed, sessionScript(seed, warm+i))
	}
	return w
}
