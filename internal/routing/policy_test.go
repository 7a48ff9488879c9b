package routing

import (
	"fmt"
	"testing"
)

// foreignPolicy hides a built-in policy behind a type routing does not
// know, so choose takes its interface path.
type foreignPolicy struct{ Policy }

// TestChooseOnTheStack: choosing among at most stackReplicas replicas
// allocates nothing under the built-in policies, and a policy of another
// type — handed a copy of the in-flight counts — picks exactly what the
// built-in one picks, on a small set and on one past the stack arrays.
func TestChooseOnTheStack(t *testing.T) {
	replicas := func(n int) []*replica {
		reps := make([]*replica, n)
		for i := range reps {
			reps[i] = &replica{addr: fmt.Sprint(i)}
			reps[i].healthy.Store(i%5 != 4)
			reps[i].inflight.Store(int64((i * 7) % 3))
		}
		return reps
	}
	var buf [stackReplicas]bool
	for _, mk := range []func() Policy{RoundRobin, LeastInFlight, func() Policy { return PowerOfTwo(3) }, AlwaysBusiest} {
		name := mk().Name()
		reps := replicas(stackReplicas)
		s := &ReplicaSet{policy: mk()}
		tried := triedFor(buf[:], len(reps))
		if allocs := testing.AllocsPerRun(100, func() { s.choose(reps, tried) }); allocs != 0 {
			t.Errorf("%s: choose over %d replicas allocates %.0f objects", name, len(reps), allocs)
		}
		for _, n := range []int{stackReplicas, stackReplicas + 4} {
			reps := replicas(n)
			known, foreign := &ReplicaSet{policy: mk()}, &ReplicaSet{policy: foreignPolicy{mk()}}
			for k := 0; k < 40; k++ {
				tried := triedFor(buf[:], n)
				tried[k%n] = true
				if a, b := known.choose(reps, tried), foreign.choose(reps, tried); a != b {
					t.Fatalf("%s over %d replicas, pick %d: built-in chose %d, the same policy behind another type %d", name, n, k, a, b)
				}
			}
		}
	}
}
