package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// WorkersEnvVar overrides the per-rank worker count when Options.Workers
// is unset: DEVIGO_WORKERS=n runs existing programs on an n-worker
// persistent pool with zero code changes. Like Options.Workers, an
// environment-pinned count is treated as forced — the autotuner never
// overrides an explicit user choice.
const WorkersEnvVar = "DEVIGO_WORKERS"

// ResolveWorkers picks the requested worker count: explicit
// Options.Workers wins, then the DEVIGO_WORKERS environment variable,
// then 0 (unforced — the operator runs serial until an autotune policy
// picks a team size). A bad value is a configuration error naming the
// value, where it came from, and what is accepted — matching
// resolveAutotune's style. Exported so callers that size other tiers around
// the per-rank team (RunShots' oversubscription guard) resolve it the same
// way and fail before starting any work.
func ResolveWorkers(requested int) (int, error) {
	if requested > 0 {
		return requested, nil
	}
	if requested < 0 {
		return 0, fmt.Errorf("core: Options.Workers must be >= 0, got %d", requested)
	}
	env := strings.TrimSpace(os.Getenv(WorkersEnvVar))
	if env == "" {
		return 0, nil
	}
	w, err := strconv.Atoi(env)
	if err != nil || w < 1 {
		return 0, fmt.Errorf("core: bad worker count %q from $%s: want an integer >= 1", env, WorkersEnvVar)
	}
	return w, nil
}
