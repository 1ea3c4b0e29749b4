package router

import (
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/layout"
)

// orderedIDs builds the stage-4 job queue for d under registry policy p
// and returns the committed net-ID sequence.
func orderedIDs(d *design.Design, policy int) []int {
	jobs := buildSeqJobs(d, layout.New(d), policy)
	ids := make([]int, len(jobs))
	for i, jb := range jobs {
		ids[i] = d.Nets[jb.net].ID
	}
	return ids
}

// TestPoliciesArePermutations: every registry policy must order the job
// queue without dropping or duplicating a net — each policy is a
// permutation of the net set.
func TestPoliciesArePermutations(t *testing.T) {
	d := genDense1(t)
	for policy := 0; policy < NumPolicies; policy++ {
		ids := orderedIDs(d, policy)
		if len(ids) != len(d.Nets) {
			t.Fatalf("policy %d (%s): %d jobs for %d nets",
				policy, PolicyName(policy), len(ids), len(d.Nets))
		}
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("policy %d (%s): net ID %d appears twice",
					policy, PolicyName(policy), id)
			}
			seen[id] = true
		}
	}
}

// TestPoliciesStableUnderRenumbering: permuting the Nets slice while each
// net keeps its ID must not change the ID sequence a policy emits — every
// sort key is a function of the net's geometry and ID, never its slice
// position (the position tie-break is unreachable while IDs are unique).
func TestPoliciesStableUnderRenumbering(t *testing.T) {
	d := genDense1(t)
	pd := *d
	pd.Nets = append([]design.Net(nil), d.Nets...)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(pd.Nets), func(i, j int) {
		pd.Nets[i], pd.Nets[j] = pd.Nets[j], pd.Nets[i]
	})
	if err := pd.Validate(); err != nil {
		t.Fatalf("shuffled design fails Validate: %v", err)
	}
	for policy := 0; policy < NumPolicies; policy++ {
		base := orderedIDs(d, policy)
		got := orderedIDs(&pd, policy)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("policy %d (%s): ID sequence changed under renumbering at position %d: %d vs %d",
					policy, PolicyName(policy), i, got[i], base[i])
			}
		}
	}
}

// TestCongestedTieBreakPinned is the pinned regression for the congested
// ordering's tie rule: nets with equal overlap counts must commit in net
// ID order — not map-iteration or sort-instability order.
func TestCongestedTieBreakPinned(t *testing.T) {
	d := genDense1(t)
	base := buildSeqJobs(d, layout.New(d), 2) // congested
	ties := 0
	for i := 1; i < len(base); i++ {
		if base[i].overlap == base[i-1].overlap {
			ties++
			if d.Nets[base[i].net].ID <= d.Nets[base[i-1].net].ID {
				t.Fatalf("equal-overlap nets out of ID order at position %d: id %d then %d (overlap %d)",
					i, d.Nets[base[i-1].net].ID, d.Nets[base[i].net].ID, base[i].overlap)
			}
		}
	}
	if ties == 0 {
		t.Fatal("dense1 produced no equal-overlap ties; the regression pins nothing")
	}
}

// TestShuffleSeedsDiffer: distinct shuffle seeds must produce distinct
// orderings — identical shuffles would waste registry entries silently.
func TestShuffleSeedsDiffer(t *testing.T) {
	d := genDense1(t)
	a := orderedIDs(d, NamedPolicies)
	b := orderedIDs(d, NamedPolicies+1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shuffle0 and shuffle1 produced identical orderings")
	}
}

// TestPolicyNames pins the registry's public naming, which reports and
// bench tables embed.
func TestPolicyNames(t *testing.T) {
	want := map[int]string{
		0: "shortest", 1: "longest", 2: "congested", 3: "detour", 4: "boundary",
		5: "shuffle0", 15: "shuffle10",
	}
	for i, name := range want {
		if got := PolicyName(i); got != name {
			t.Errorf("PolicyName(%d) = %q, want %q", i, got, name)
		}
	}
	if got := PolicyName(-1); got != "invalid" {
		t.Errorf("PolicyName(-1) = %q, want invalid", got)
	}
	if got := PolicyName(NumPolicies); got != "invalid" {
		t.Errorf("PolicyName(NumPolicies) = %q, want invalid", got)
	}
}
