package router

import (
	"fmt"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// The ordering-policy registry. Stage 4 commits nets one at a time, so
// routability hinges on the commit order; the registry is the single
// list of orderings the flow knows — Options.OrderPolicy and the qa
// escalation ladder both draw from it, so qa exercises exactly the
// policies a caller can select.
//
// Indices and names are part of the deterministic contract: the codec
// serializes Options.OrderPolicy by name, and the recorded per-policy
// results (EXPERIMENTS.md) name their policies. Reordering or renaming
// entries is a semantic change, not a refactor.
const (
	// NamedPolicies is the number of feature-based heuristics at the
	// front of the registry: shortest, longest, congested, detour,
	// boundary. Indices beyond them are seeded deterministic shuffles
	// (policy i shuffles with seed i − NamedPolicies).
	NamedPolicies = 5

	// NumPolicies is the registry's size and bounds Options.OrderPolicy:
	// the five named heuristics plus eleven seeded shuffles.
	NumPolicies = 16
)

// netOrderPolicy is one registry entry: a stable name for reports and a
// sort ordering the stage-4 job queue in place. order must be a
// permutation (never dropping or duplicating jobs) and deterministic —
// the policy property tests hold every entry to that.
type netOrderPolicy struct {
	name  string
	order func(d *design.Design, jobs []seqJob)
}

// PolicyName names registry policy i ("shortest", "longest",
// "congested", "detour", "boundary", "shuffle0", "shuffle1", ...).
// Indices outside [0, NumPolicies) yield "invalid".
func PolicyName(i int) string {
	if i < 0 || i >= NumPolicies {
		return "invalid"
	}
	return policyByIndex(i).name
}

// policyByIndex returns registry entry i. Callers validate the range;
// out-of-range indices fall back to the default shortest-first policy.
func policyByIndex(i int) netOrderPolicy {
	switch i {
	case 1:
		return netOrderPolicy{name: "longest", order: orderLongest}
	case 2:
		return netOrderPolicy{name: "congested", order: orderCongested}
	case 3:
		return netOrderPolicy{name: "detour", order: orderDetour}
	case 4:
		return netOrderPolicy{name: "boundary", order: orderBoundary}
	default:
		if i >= NamedPolicies && i < NumPolicies {
			seed := i - NamedPolicies
			return netOrderPolicy{
				name:  fmt.Sprintf("shuffle%d", seed),
				order: orderShuffle(seed),
			}
		}
		return netOrderPolicy{name: "shortest", order: orderShortest}
	}
}

// jobIDLess is the stable tie-break every policy shares: net ID, then
// net index. sort.Slice is not stable, so without a total order
// equal-keyed nets could commit in any order, and byte identity across
// runs would be lost.
func jobIDLess(d *design.Design, jobs []seqJob) func(i, j int) bool {
	return func(i, j int) bool {
		idi, idj := d.Nets[jobs[i].net].ID, d.Nets[jobs[j].net].ID
		if idi != idj {
			return idi < idj
		}
		return jobs[i].net < jobs[j].net
	}
}

func orderShortest(d *design.Design, jobs []seqJob) {
	idLess := jobIDLess(d, jobs)
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].direct != jobs[j].direct {
			return jobs[i].direct < jobs[j].direct
		}
		return idLess(i, j)
	})
}

func orderLongest(d *design.Design, jobs []seqJob) {
	idLess := jobIDLess(d, jobs)
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].direct != jobs[j].direct {
			return jobs[i].direct > jobs[j].direct
		}
		return idLess(i, j)
	})
}

// computeOverlaps fills jobs[i].overlap with the number of other jobs
// whose bounding boxes intersect job i's: one rectangle test per pair.
func computeOverlaps(jobs []seqJob) {
	for i := range jobs {
		for j := i + 1; j < len(jobs); j++ {
			if jobs[i].bbox.Intersects(jobs[j].bbox) {
				jobs[i].overlap++
				jobs[j].overlap++
			}
		}
	}
}

// orderCongested routes nets whose bounding boxes overlap the most other
// nets first (hardest-first). Equal overlap counts fall back to the
// stable identity tie-break — the pinned tie regression holds two
// equal-overlap nets to ID order.
func orderCongested(d *design.Design, jobs []seqJob) {
	computeOverlaps(jobs)
	idLess := jobIDLess(d, jobs)
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].overlap != jobs[j].overlap {
			return jobs[i].overlap > jobs[j].overlap
		}
		return idLess(i, j)
	})
}

// orderDetour routes the nets most likely to be forced into detours
// first: overlap count normalized by direct length, so a short net
// crossing many others (whose detour, if it loses its direct corridor,
// is proportionally the worst) beats a long net with the same contention.
// The score is a ratio of exact inputs (an integer count over an exact
// octilinear distance), so equal scores are equal by construction, not by
// float coincidence, and the identity tie-break keeps the order total.
func orderDetour(d *design.Design, jobs []seqJob) {
	computeOverlaps(jobs)
	idLess := jobIDLess(d, jobs)
	score := func(i int) float64 {
		den := jobs[i].direct
		if den <= 0 {
			den = 1
		}
		return float64(jobs[i].overlap) / den
	}
	sort.Slice(jobs, func(i, j int) bool {
		si, sj := score(i), score(j)
		if si != sj {
			return si > sj
		}
		return idLess(i, j)
	})
}

// boundaryDist is the distance from the net's nearer pad to the nearest
// outline edge — how boxed-in the net's anchor is.
func boundaryDist(d *design.Design, jb seqJob) int64 {
	o := d.Outline
	dist := func(p geom.Point) int64 {
		return geom.Min64(geom.Min64(p.X-o.X0, o.X1-p.X), geom.Min64(p.Y-o.Y0, o.Y1-p.Y))
	}
	nn := d.Nets[jb.net]
	return geom.Min64(dist(d.PadCenter(nn.P1)), dist(d.PadCenter(nn.P2)))
}

// orderBoundary routes boundary-hugging nets first: a net whose pad sits
// near the outline has the fewest escape directions, so letting interior
// nets commit first can wall it in. Ties (same distance ring) break on
// identity.
func orderBoundary(d *design.Design, jobs []seqJob) {
	idLess := jobIDLess(d, jobs)
	keys := make([]int64, len(jobs))
	for i := range jobs {
		keys[i] = boundaryDist(d, jobs[i])
	}
	sort.Sort(&keyedJobs{jobs: jobs, keys: keys, idLess: idLess})
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// so shuffle keys collide only when their inputs do.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// orderShuffle builds the seeded deterministic shuffle policy: each job
// keys on a hash of (seed, net ID) and sorts by key. The same seed and
// net set always produce the same order; different seeds decorrelate,
// which is the point — shuffles cover orderings no feature-based
// heuristic proposes.
func orderShuffle(seed int) func(*design.Design, []seqJob) {
	return func(d *design.Design, jobs []seqJob) {
		idLess := jobIDLess(d, jobs)
		base := mix64(uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03)
		keys := make([]int64, len(jobs))
		for i := range jobs {
			keys[i] = int64(mix64(base ^ uint64(int64(d.Nets[jobs[i].net].ID)+1)))
		}
		sort.Sort(&keyedJobs{jobs: jobs, keys: keys, idLess: idLess})
	}
}

// keyedJobs sorts a job slice and its parallel precomputed key slice
// together: ascending key, identity tie-break. Policies whose keys are
// not already fields of seqJob use it so the keys move with the jobs.
type keyedJobs struct {
	jobs   []seqJob
	keys   []int64
	idLess func(i, j int) bool
}

func (k *keyedJobs) Len() int { return len(k.jobs) }
func (k *keyedJobs) Less(i, j int) bool {
	if k.keys[i] != k.keys[j] {
		return k.keys[i] < k.keys[j]
	}
	return k.idLess(i, j)
}
func (k *keyedJobs) Swap(i, j int) {
	k.jobs[i], k.jobs[j] = k.jobs[j], k.jobs[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
