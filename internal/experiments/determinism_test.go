package experiments

import (
	"strings"
	"testing"
)

// render flattens a Result into its printed form for byte comparison.
func render(t *testing.T, id string) string {
	t.Helper()
	res, err := Run(id, Quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	res.Fprint(&b)
	return b.String()
}

// TestExperimentsAreDeterministic re-runs a representative slice of the
// experiment registry — a centralized error study and a distributed
// replication study — and requires byte-identical output. Every random
// choice in the pipeline (stream values, query workloads, topologies)
// must come from an injected seeded RNG, never the shared global one;
// any stowaway use of the global RNG or map-iteration nondeterminism
// shows up here as a diff between runs.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, id := range []string{"fig4a", "fig9c"} {
		id := id
		t.Run(id, func(t *testing.T) {
			first := render(t, id)
			second := render(t, id)
			if first != second {
				t.Errorf("experiment %q is not deterministic across same-process runs", id)
			}
		})
	}
}
