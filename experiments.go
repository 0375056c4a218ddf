package ndpage

import (
	"ndpage/internal/exp"
	"ndpage/internal/stats"
)

// Table is a rendered experiment result: aligned text via String, machine-
// readable output via CSV.
type Table = stats.Table

// Experiments regenerates the paper's evaluation over the sweep
// subsystem (see Plan, Sweep, Store): one method per figure, table and
// sensitivity study. The zero value runs every figure at the default
// (full) scale over all eleven workloads; the fields trade fidelity for
// speed. Cache persists results across figures and processes
// (NewDirStore, NewRemoteStore); Cache, Parallel and Progress are read
// when the first figure runs.
type Experiments = exp.Runner

// TableII renders the workload registry.
func TableII() *Table { return exp.TableII() }
