package server

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"adaptiveindex/internal/core"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/persist"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// ParseMergeSpec parses a merge-policy flag: a bare policy name sets
// the default for every table ("gradual"), and "table=policy" entries
// override per table; entries are comma-separated, e.g.
// "gradual,orders=immediate".
func ParseMergeSpec(s string) (def updates.MergePolicy, perTable map[string]updates.MergePolicy, err error) {
	def = updates.MergeGradually
	perTable = make(map[string]updates.MergePolicy)
	if strings.TrimSpace(s) == "" {
		return def, perTable, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, policy, ok := strings.Cut(part, "="); ok {
			name = strings.TrimSpace(name)
			if name == "" {
				return def, nil, fmt.Errorf("server: merge spec %q: empty table name", part)
			}
			p, err := updates.ParsePolicy(strings.TrimSpace(policy))
			if err != nil {
				return def, nil, fmt.Errorf("server: merge spec %q: %w", part, err)
			}
			perTable[name] = p
			continue
		}
		p, err := updates.ParsePolicy(part)
		if err != nil {
			return def, nil, fmt.Errorf("server: merge spec %q: %w", part, err)
		}
		def = p
	}
	return def, perTable, nil
}

// TableSpec describes one table of a generated catalog.
type TableSpec struct {
	// Name is the table name.
	Name string
	// Rows is the number of tuples.
	Rows int
	// Cols is the number of columns; they are named c0..c{Cols-1}.
	Cols int
}

// ColumnName returns the canonical name of generated column i.
func ColumnName(i int) string { return fmt.Sprintf("c%d", i) }

// ParseTableSpecs parses a comma-separated list of "name:rows:cols"
// table specifications, e.g. "orders:1000000:4,events:200000:2".
func ParseTableSpecs(s string) ([]TableSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("server: empty table spec")
	}
	var specs []TableSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("server: table spec %q: want name:rows:cols", part)
		}
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("server: table spec %q: empty name", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("server: table spec repeats table %q", name)
		}
		seen[name] = true
		rows, err := strconv.Atoi(fields[1])
		if err != nil || rows < 1 {
			return nil, fmt.Errorf("server: table spec %q: bad row count %q", part, fields[1])
		}
		cols, err := strconv.Atoi(fields[2])
		if err != nil || cols < 1 {
			return nil, fmt.Errorf("server: table spec %q: bad column count %q", part, fields[2])
		}
		specs = append(specs, TableSpec{Name: name, Rows: rows, Cols: cols})
	}
	return specs, nil
}

// BuildCatalog generates a deterministic catalog from table specs:
// every column is uniform over [0, domain) (domain <= 0 means the
// table's row count), seeded per (table, column) so a daemon restarted
// with the same flags hosts byte-identical data — the property engine
// snapshot restore depends on.
func BuildCatalog(specs []TableSpec, seed int64, domain int) (*engine.Catalog, error) {
	cat := engine.NewCatalog()
	for ti, spec := range specs {
		t := engine.NewTable(spec.Name)
		d := domain
		if d <= 0 {
			d = spec.Rows
		}
		for ci := 0; ci < spec.Cols; ci++ {
			colSeed := seed + int64(ti)*1009 + int64(ci)*97
			if err := t.AddColumn(ColumnName(ci), workload.DataUniform(colSeed, spec.Rows, d)); err != nil {
				return nil, err
			}
		}
		if err := cat.Register(t); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// EngineOptions tunes BuildEngine and BuildExec.
type EngineOptions struct {
	// Shards is the number of engine shards hosting the catalog
	// (BuildExec only; values below 2 build a single engine). Each
	// shard owns a row stripe of every table and answers every query;
	// see internal/shard.
	Shards int
	// RandomPivotThreshold enables stochastic pivots below the given
	// piece size (0 disables them).
	RandomPivotThreshold int
	// Seed seeds randomised cracking strategies.
	Seed int64
	// Planner tunes the PathAuto planner; the zero value means the
	// engine defaults.
	Planner engine.PlannerOptions
	// MergePolicy is the default policy deciding when buffered writes
	// merge into cracked columns (zero value: MergeGradually);
	// TablePolicies overrides it per table. Policies are applied
	// before a snapshot restore, so restored pending buffers drain
	// under the configured policy.
	MergePolicy   updates.MergePolicy
	TablePolicies map[string]updates.MergePolicy
	// SnapshotPath, when non-empty, restores the engine's adaptive
	// state from the snapshot instead of starting cold. A missing file
	// is not an error (cold start).
	SnapshotPath string
}

// BuiltEngine couples a constructed engine with the restore outcome.
type BuiltEngine struct {
	Engine *engine.Engine
	// Restored reports whether adaptive state was rebuilt from a
	// snapshot.
	Restored bool
}

// BuildEngine constructs the hosted engine over the catalog, restoring
// a persisted snapshot when one exists.
func BuildEngine(cat *engine.Catalog, opts EngineOptions) (BuiltEngine, error) {
	coreOpts := core.Options{
		CrackInThree:         true,
		Seed:                 opts.Seed,
		RandomPivotThreshold: opts.RandomPivotThreshold,
	}
	eng := engine.New(cat, coreOpts)
	eng.SetPlannerOptions(opts.Planner)
	// applyPolicies runs both before a restore (so columns rebuilt
	// lazily use the configured policy) and after it (so the daemon's
	// flags override the policy names a snapshot carries).
	applyPolicies := func() error {
		eng.SetMergePolicy(opts.MergePolicy)
		for table, policy := range opts.TablePolicies {
			if err := eng.SetTableMergePolicy(table, policy); err != nil {
				return err
			}
		}
		return nil
	}
	if err := applyPolicies(); err != nil {
		return BuiltEngine{}, err
	}
	if opts.SnapshotPath == "" {
		return BuiltEngine{Engine: eng}, nil
	}
	if _, err := os.Stat(opts.SnapshotPath); err != nil {
		if os.IsNotExist(err) {
			return BuiltEngine{Engine: eng}, nil
		}
		return BuiltEngine{}, fmt.Errorf("server: snapshot %s: %w", opts.SnapshotPath, err)
	}
	if err := persist.RestoreEngineFile(opts.SnapshotPath, eng); err != nil {
		return BuiltEngine{}, fmt.Errorf("server: restoring snapshot %s: %w", opts.SnapshotPath, err)
	}
	if err := applyPolicies(); err != nil {
		return BuiltEngine{}, err
	}
	return BuiltEngine{Engine: eng, Restored: true}, nil
}

// BuiltExec couples a constructed executor with the restore outcome.
// Exactly one of Engine and Cluster is non-nil, depending on the
// configured shard count.
type BuiltExec struct {
	Exec    Exec
	Engine  *engine.Engine
	Cluster *shard.Cluster
	// Restored reports whether adaptive state was rebuilt from a
	// snapshot.
	Restored bool
}

// BuildExec constructs the hosted executor over the catalog: a single
// engine when opts.Shards < 2 (identical to BuildEngine), a row-striped
// shard cluster otherwise. Snapshot restore follows the shard count —
// an engine snapshot for a single engine, a per-shard cluster snapshot
// whose shard count must match for a cluster.
func BuildExec(cat *engine.Catalog, opts EngineOptions) (BuiltExec, error) {
	if opts.Shards < 2 {
		built, err := BuildEngine(cat, opts)
		if err != nil {
			return BuiltExec{}, err
		}
		return BuiltExec{Exec: singleExec{eng: built.Engine}, Engine: built.Engine, Restored: built.Restored}, nil
	}
	coreOpts := core.Options{
		CrackInThree:         true,
		Seed:                 opts.Seed,
		RandomPivotThreshold: opts.RandomPivotThreshold,
	}
	cl, err := shard.New(cat, opts.Shards, coreOpts)
	if err != nil {
		return BuiltExec{}, err
	}
	cl.SetPlannerOptions(opts.Planner)
	applyPolicies := func() error {
		cl.SetMergePolicy(opts.MergePolicy)
		for table, policy := range opts.TablePolicies {
			if err := cl.SetTableMergePolicy(table, policy); err != nil {
				return err
			}
		}
		return nil
	}
	if err := applyPolicies(); err != nil {
		return BuiltExec{}, err
	}
	built := BuiltExec{Exec: cl, Cluster: cl}
	if opts.SnapshotPath == "" {
		return built, nil
	}
	if _, err := os.Stat(opts.SnapshotPath); err != nil {
		if os.IsNotExist(err) {
			return built, nil
		}
		return BuiltExec{}, fmt.Errorf("server: snapshot %s: %w", opts.SnapshotPath, err)
	}
	states, err := persist.RestoreClusterFile(opts.SnapshotPath)
	if err != nil {
		return BuiltExec{}, fmt.Errorf("server: restoring snapshot %s: %w", opts.SnapshotPath, err)
	}
	if err := cl.Restore(states); err != nil {
		return BuiltExec{}, fmt.Errorf("server: restoring snapshot %s: %w", opts.SnapshotPath, err)
	}
	if err := applyPolicies(); err != nil {
		return BuiltExec{}, err
	}
	built.Restored = true
	return built, nil
}
