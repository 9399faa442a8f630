package tester

// Distributed trial execution: the tester's bridge to runner.Backend
// implementations, mirroring the experiment harness's cell bridge. A trial
// travels as a gob-encoded Config (already all-exported), keyed by the same
// content address the persistent report cache uses, and returns a
// gob-encoded Report. Trials are pure functions of their Config, so a
// worker's report equals the in-process one field for field.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cellstore"
	"repro/internal/runner"
)

// TrialKind is the job kind of one random-tester trial (see runner.Job).
const TrialKind = "bashsim.trial"

// RegisterTrialExecutor makes this process able to execute TrialKind jobs:
// worker processes (and the in-process runner.LocalBackend) call it at
// startup, as does a co-executing coordinator (its in-process worker
// leases through the same registry). The executor serves trials already in the
// store under cacheDir without simulating and publishes fresh reports into
// it; an empty cacheDir always simulates.
func RegisterTrialExecutor(cacheDir string) {
	runner.RegisterExecutor(TrialKind, func(spec []byte) ([]byte, error) {
		var cfg Config
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&cfg); err != nil {
			return nil, fmt.Errorf("trial spec: %w", err)
		}
		rep, served := Report{}, false
		st := cellstore.For(cacheDir)
		key := cfg.withDefaults().cacheKey()
		if st != nil && st.Get(key, &rep) {
			served = true
		}
		if !served {
			rep = Run(cfg)
			if st != nil {
				st.Put(key, rep) // best-effort; a failed write re-runs later
			}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// RunConfigsOn is RunConfigsCached executed through an arbitrary backend: a
// nil backend selects the in-process path unchanged; otherwise every trial
// not already in the local store under cacheDir is dispatched as a TrialKind
// job and the reports fold back in config order, byte-identical to the
// in-process path. Completed reports are written through to the local store,
// so an interrupted soak resumes wherever it stopped.
func RunConfigsOn(backend runner.Backend, cfgs []Config, opt runner.Options, cacheDir string) ([]Report, error) {
	if backend == nil {
		return RunConfigsCached(cfgs, opt, cacheDir)
	}
	applyDefaultLabel(cfgs, &opt)

	reps := make([]Report, len(cfgs))
	st := cellstore.For(cacheDir)
	var miss []int
	for i, cfg := range cfgs {
		if st != nil && st.Get(cfg.withDefaults().cacheKey(), &reps[i]) {
			continue
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return reps, nil
	}
	jobs := make([]runner.Job, len(miss))
	for k, i := range miss {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cfgs[i]); err != nil {
			return reps, fmt.Errorf("tester: encode %s: %w", opt.Label(i), err)
		}
		jobs[k] = runner.Job{
			Kind:  TrialKind,
			Key:   cfgs[i].withDefaults().cacheKey(),
			Label: opt.Label(i),
			Spec:  buf.Bytes(),
		}
	}
	jopt := opt
	jopt.Label = func(k int) string { return jobs[k].Label }
	outs, err := backend.Run(jobs, jopt)
	for k, i := range miss {
		if outs[k] == nil {
			continue // failed or canceled before completion; err reports it
		}
		if derr := gob.NewDecoder(bytes.NewReader(outs[k])).Decode(&reps[i]); derr != nil {
			if err == nil {
				err = fmt.Errorf("tester: decode report of %s: %w", jobs[k].Label, derr)
			}
			continue
		}
		if st != nil {
			st.Put(cfgs[i].withDefaults().cacheKey(), reps[i])
		}
	}
	return reps, err
}
