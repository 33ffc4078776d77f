// Package agent implements the cabd collector (cmd/cabd-agent): it
// tails time-series sources from a directory, runs local streaming
// detection, and forwards confirmed detections to a cabd-serve instance
// with an at-least-once, crash-safe transport — capped exponential
// backoff with seeded jitter, a bounded disk-backed spill buffer for
// disconnects, and idempotency keys so the server deduplicates
// redeliveries.
//
// The agent is deliberately single-threaded: one Run loop polls
// sources, flushes detections and checkpoints its state (source
// offsets + stream-detector snapshots) in a fixed order, so every unit
// of progress is either durably acknowledged by the server, sitting in
// the spill buffer, or re-derivable from the checkpoint. All waiting
// goes through an injectable sleep and all time through an injectable
// clock, so tests pin the exact retry schedule with a FakeClock.
package agent

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cabd/client"
	"cabd/internal/obs"
)

// Config parameterizes an Agent. Layering is Default ← ApplyFile ←
// ApplyEnv ← flags (register flags after the first three layers so the
// current values become the flag defaults); cmd/cabd-agent re-runs the
// same layering on SIGHUP and hands the result to Reload.
type Config struct {
	// Name identifies this collector; it prefixes every idempotency key,
	// so two agents tailing the same source never collide.
	Name string
	// Server is the cabd-serve base URL detections are forwarded to.
	Server string
	// SourceDir is the directory tailed for *.csv / *.ndjson sources;
	// each file is one stream named after its base name.
	SourceDir string
	// StateDir holds the agent's durable state: the checkpoint
	// (agent.json) and the spill buffer (spill/). Empty disables
	// persistence — the agent is then only as reliable as its process.
	StateDir string

	// PollEvery is the source-scan cadence (default 2s); every poll
	// also flushes.
	PollEvery time.Duration
	// BatchSize caps detections per forward request (default 64).
	BatchSize int
	// SpillMaxBytes bounds the on-disk spill buffer; when a new segment
	// would exceed it the oldest segments are dropped and counted
	// (default 32 MiB).
	SpillMaxBytes int64

	// Backoff shapes the forwarder's retry delays; MaxAttempts is the
	// per-flush try count including the first (default 4).
	Backoff     client.Backoff
	MaxAttempts int

	// Window, Hop, Margin configure the per-stream detectors (defaults
	// from cabd.StreamConfig); Seed fixes the detection pipeline's
	// stochastic components.
	Window int
	Hop    int
	Margin int
	Seed   int64

	// Runtime dependencies — never part of the file/env/flag layers.
	// Recorder receives the agent's counters (nil: a fresh wall-clock
	// recorder). Sleep is how the agent and its retries wait (nil:
	// obs.Sleep). Logf receives operational lines (nil: silent).
	Recorder *obs.Recorder
	Sleep    obs.SleepFunc
	Logf     func(format string, args ...any)
}

// Default is the base layer of the configuration.
func Default() Config {
	return Config{
		Name:          "agent",
		PollEvery:     2 * time.Second,
		BatchSize:     64,
		SpillMaxBytes: 32 << 20,
		MaxAttempts:   4,
	}
}

// fileConfig is the JSON shape of a config file: every field optional
// (absent fields keep the previous layer), durations as strings
// ("250ms", "5s").
type fileConfig struct {
	Name          *string  `json:"name"`
	Server        *string  `json:"server"`
	SourceDir     *string  `json:"source_dir"`
	StateDir      *string  `json:"state_dir"`
	PollEvery     *string  `json:"poll_every"`
	BatchSize     *int     `json:"batch_size"`
	SpillMaxBytes *int64   `json:"spill_max_bytes"`
	BackoffBase   *string  `json:"backoff_base"`
	BackoffMax    *string  `json:"backoff_max"`
	BackoffFactor *float64 `json:"backoff_factor"`
	BackoffJitter *float64 `json:"backoff_jitter"`
	BackoffSeed   *int64   `json:"backoff_seed"`
	MaxAttempts   *int     `json:"max_attempts"`
	Window        *int     `json:"window"`
	Hop           *int     `json:"hop"`
	Margin        *int     `json:"margin"`
	Seed          *int64   `json:"seed"`
}

// ApplyFile overlays the JSON config at path onto c. A missing path is
// an error — a misspelled -config must not silently run on defaults.
func (c *Config) ApplyFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config file: %w", err)
	}
	var f fileConfig
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("config file %s: %w", path, err)
	}
	setStr := func(dst *string, src *string) {
		if src != nil {
			*dst = *src
		}
	}
	setStr(&c.Name, f.Name)
	setStr(&c.Server, f.Server)
	setStr(&c.SourceDir, f.SourceDir)
	setStr(&c.StateDir, f.StateDir)
	if err := setDur(&c.PollEvery, f.PollEvery); err != nil {
		return fmt.Errorf("config file %s: poll_every: %w", path, err)
	}
	if f.BatchSize != nil {
		c.BatchSize = *f.BatchSize
	}
	if f.SpillMaxBytes != nil {
		c.SpillMaxBytes = *f.SpillMaxBytes
	}
	if err := setDur(&c.Backoff.Base, f.BackoffBase); err != nil {
		return fmt.Errorf("config file %s: backoff_base: %w", path, err)
	}
	if err := setDur(&c.Backoff.Max, f.BackoffMax); err != nil {
		return fmt.Errorf("config file %s: backoff_max: %w", path, err)
	}
	if f.BackoffFactor != nil {
		c.Backoff.Factor = *f.BackoffFactor
	}
	if f.BackoffJitter != nil {
		c.Backoff.Jitter = *f.BackoffJitter
	}
	if f.BackoffSeed != nil {
		c.Backoff.Seed = *f.BackoffSeed
	}
	if f.MaxAttempts != nil {
		c.MaxAttempts = *f.MaxAttempts
	}
	if f.Window != nil {
		c.Window = *f.Window
	}
	if f.Hop != nil {
		c.Hop = *f.Hop
	}
	if f.Margin != nil {
		c.Margin = *f.Margin
	}
	if f.Seed != nil {
		c.Seed = *f.Seed
	}
	return nil
}

func setDur(dst *time.Duration, src *string) error {
	if src == nil {
		return nil
	}
	d, err := time.ParseDuration(*src)
	if err != nil {
		return err
	}
	*dst = d
	return nil
}

// ApplyEnv overlays CABD_AGENT_* variables onto c. lookup is
// os.LookupEnv in production, a map closure in tests.
func (c *Config) ApplyEnv(lookup func(string) (string, bool)) error {
	str := func(key string, dst *string) {
		if v, ok := lookup(key); ok {
			*dst = v
		}
	}
	str("CABD_AGENT_NAME", &c.Name)
	str("CABD_AGENT_SERVER", &c.Server)
	str("CABD_AGENT_SOURCE_DIR", &c.SourceDir)
	str("CABD_AGENT_STATE_DIR", &c.StateDir)
	if v, ok := lookup("CABD_AGENT_POLL_EVERY"); ok {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("CABD_AGENT_POLL_EVERY: %w", err)
		}
		c.PollEvery = d
	}
	if v, ok := lookup("CABD_AGENT_BATCH_SIZE"); ok {
		if _, err := fmt.Sscanf(v, "%d", &c.BatchSize); err != nil {
			return fmt.Errorf("CABD_AGENT_BATCH_SIZE: %w", err)
		}
	}
	if v, ok := lookup("CABD_AGENT_SPILL_MAX_BYTES"); ok {
		if _, err := fmt.Sscanf(v, "%d", &c.SpillMaxBytes); err != nil {
			return fmt.Errorf("CABD_AGENT_SPILL_MAX_BYTES: %w", err)
		}
	}
	if v, ok := lookup("CABD_AGENT_SEED"); ok {
		if _, err := fmt.Sscanf(v, "%d", &c.Seed); err != nil {
			return fmt.Errorf("CABD_AGENT_SEED: %w", err)
		}
	}
	return nil
}

// RegisterFlags binds the command-line layer onto c. Call it after
// ApplyFile/ApplyEnv so the already-layered values are the flag
// defaults and only flags the user actually passed change anything.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Name, "name", c.Name, "agent name (prefixes idempotency keys)")
	fs.StringVar(&c.Server, "server", c.Server, "cabd-serve base URL")
	fs.StringVar(&c.SourceDir, "source-dir", c.SourceDir, "directory tailed for *.csv / *.ndjson sources")
	fs.StringVar(&c.StateDir, "state-dir", c.StateDir, "directory for checkpoint and spill buffer (empty disables persistence)")
	fs.DurationVar(&c.PollEvery, "poll-every", c.PollEvery, "source scan cadence")
	fs.IntVar(&c.BatchSize, "batch-size", c.BatchSize, "max detections per forward request")
	fs.Int64Var(&c.SpillMaxBytes, "spill-max-bytes", c.SpillMaxBytes, "spill buffer byte cap (oldest segments dropped beyond it)")
	fs.DurationVar(&c.Backoff.Base, "backoff-base", c.Backoff.Base, "first retry delay (0 keeps the client default)")
	fs.DurationVar(&c.Backoff.Max, "backoff-max", c.Backoff.Max, "retry delay cap (0 keeps the client default)")
	fs.Float64Var(&c.Backoff.Jitter, "backoff-jitter", c.Backoff.Jitter, "fractional retry jitter (0 default, negative disables)")
	fs.Int64Var(&c.Backoff.Seed, "backoff-seed", c.Backoff.Seed, "jitter rng seed")
	fs.IntVar(&c.MaxAttempts, "max-attempts", c.MaxAttempts, "tries per forward request including the first")
	fs.IntVar(&c.Window, "window", c.Window, "stream analysis window (0 keeps the library default)")
	fs.IntVar(&c.Hop, "hop", c.Hop, "stream re-analysis hop (0 keeps the library default)")
	fs.IntVar(&c.Margin, "margin", c.Margin, "stream trailing uncertainty margin (0 keeps the library default)")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "detection pipeline seed")
}

// Validate rejects configurations the agent cannot run on.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("agent name must not be empty")
	}
	if c.Server == "" {
		return fmt.Errorf("server URL must not be empty")
	}
	if c.SourceDir == "" {
		return fmt.Errorf("source directory must not be empty")
	}
	if c.PollEvery <= 0 {
		return fmt.Errorf("poll-every must be positive, got %v", c.PollEvery)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("batch-size must be positive, got %d", c.BatchSize)
	}
	if c.MaxAttempts <= 0 {
		return fmt.Errorf("max-attempts must be positive, got %d", c.MaxAttempts)
	}
	return nil
}

// LoadConfig runs the full layering for cmd/cabd-agent: defaults, then
// the optional config file, then environment, then flags. It is re-run
// verbatim on SIGHUP so a hot reload sees exactly what a restart would.
func LoadConfig(file string, lookup func(string) (string, bool), args []string) (Config, error) {
	cfg := Default()
	if file != "" {
		if err := cfg.ApplyFile(file); err != nil {
			return cfg, err
		}
	}
	if err := cfg.ApplyEnv(lookup); err != nil {
		return cfg, err
	}
	fs := flag.NewFlagSet("cabd-agent", flag.ContinueOnError)
	fs.String("config", file, "path to JSON config file") // consumed by main; re-registered for reparse
	cfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
