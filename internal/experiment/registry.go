package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"mmwave/internal/faults"
)

// RunEnv carries the CLI-resolved inputs a figure driver needs: the
// base config (Table I at the driver's Scale, then the explicit scale
// flags), the output stream, and the handful of figure-specific flags.
type RunEnv struct {
	Cfg Config    // base campaign config
	XS  []float64 // -sweep values (nil = the driver's default x-axis)
	Out io.Writer // destination for the rendered figure

	Rep      int                  // -rep: repetition index (fig 4)
	Cells    int                  // -cells: supervised cells (chaossoak; 0 = default)
	Epochs   int                  // -epochs: scheduling epochs (faultsweep, chaossoak; 0 = default)
	Retries  int                  // -retries: control retry budget (faultsweep; -1 = policy default)
	Failures []faults.LinkFailure // -fail: injected link outages (faultsweep)
}

// Scale is a figure's reduced default scale. Each nonzero field
// replaces the Table I value before the CLI applies its explicit
// flags, so -links, -seeds, -channels and -budget always win.
type Scale struct{ Links, Seeds, Channels, Budget int }

// Of returns cfg at scale s.
func (s Scale) Of(cfg Config) Config {
	if s.Links > 0 {
		cfg.NumLinks = s.Links
	}
	if s.Seeds > 0 {
		cfg.Seeds = s.Seeds
	}
	if s.Channels > 0 {
		cfg.NumChannels = s.Channels
	}
	if s.Budget > 0 {
		cfg.PricerBudget = s.Budget
	}
	return cfg
}

// Driver reproduces one figure of the evaluation. Drivers register
// themselves at package init, so the CLI's -fig dispatch and its help
// listing are both derived from the registry.
type Driver struct {
	Name     string // the -fig argument
	Synopsis string // one-line description for -fig help
	Scale    Scale  // reduced default scale (zero = Table I)
	Run      func(env *RunEnv) error
}

var (
	driverMu sync.RWMutex
	drivers  = map[string]Driver{}
)

// Register adds a figure driver. It panics on a duplicate or empty
// name — both are programmer errors caught at init.
func Register(d Driver) {
	if d.Name == "" || d.Run == nil {
		panic("experiment: Register needs a name and a Run func")
	}
	driverMu.Lock()
	defer driverMu.Unlock()
	if _, dup := drivers[d.Name]; dup {
		panic(fmt.Sprintf("experiment: duplicate driver %q", d.Name))
	}
	drivers[d.Name] = d
}

// Lookup returns the driver registered under name.
func Lookup(name string) (Driver, bool) {
	driverMu.RLock()
	defer driverMu.RUnlock()
	d, ok := drivers[name]
	return d, ok
}

// Drivers lists every registered driver sorted by name.
func Drivers() []Driver {
	driverMu.RLock()
	defer driverMu.RUnlock()
	out := make([]Driver, 0, len(drivers))
	for _, d := range drivers {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
