package dist

// Supervision: the POLICY over the membership changes of membership.go.
// On every failed step the Supervisor applies one decision tree:
//
//  1. REPLACE — with a ReplicaBuilder, Recover (bit-identical resume at the
//     original width), retried up to maxRetries times with backoff; a failed
//     attempt leaves the condemned trainer exactly as it found it.
//  2. SHRINK — otherwise, with at least MinReplicas survivors, Shrink to
//     them and continue as a legal smaller run.
//  3. ABORT — below the floor, or condemned without a dead rank: write a
//     final checkpoint of the last committed parameters, return the cause.
//
// A step that went non-finite (core.ErrNonFinite) is not a failure of the
// membership, and a replay would diverge the same way: the run aborts at
// once, with the final checkpoint, counting nothing.
//
// Every path terminates: the collective deadline (New installs one) makes a
// failed step surface, and what follows is a rebuild or a checkpointed
// exit. After growAfter clean steps below the starting width it Grows back
// to that width.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// The supervisor's fixed schedule: maxRetries EXTRA Recover attempts after
// a failed one, waiting backoff before the first and doubling up to
// backoffMax; and a re-grow after growAfter clean steps.
const (
	maxRetries = 2
	backoff    = 100 * time.Millisecond
	backoffMax = 2 * time.Second
	growAfter  = 10
)

// Policy configures the supervisor's failure handling.
type Policy struct {
	// MinReplicas is the membership floor: a failure that would leave fewer
	// survivors aborts the run (with a final checkpoint) instead of
	// shrinking. Zero means 1 — shrink as long as anyone survives.
	MinReplicas int
	// CheckpointDir, when non-empty, is where recovery, growth and final
	// checkpoints are written (atomically, via nn.SaveFile). Empty keeps
	// recovery checkpoints in memory and skips the final artifact.
	CheckpointDir string
	// Builder constructs replacement replicas for Recover and admitted
	// replicas for Grow. Nil disables both — every failure falls through to
	// shrink-or-abort, and the run never re-grows.
	Builder ReplicaBuilder
}

// SupervisorStats counts what the supervisor did, for observability and
// tests.
type SupervisorStats struct {
	// Failures counts failed steps handled; Replacements, Shrinks and Grows
	// the successful rebuilds of each kind; Retries the EXTRA Recover
	// attempts after a failed one; GrowAttempts every re-grow tried.
	Failures, Replacements, Shrinks, Grows, Retries, GrowAttempts int
	// BackoffTotal is the summed wait before those retries.
	BackoffTotal time.Duration
	// FloorAborts is 1 when the run stopped at the MinReplicas floor.
	FloorAborts int
	// FinalCheckpoint is the final checkpoint's path, set when CheckpointDir
	// is configured and the run has ended (cleanly or by abort).
	FinalCheckpoint string
}

// Supervisor drives a Trainer through a training run, rebuilding it across
// failures per its Policy. It is not safe for concurrent use.
type Supervisor struct {
	tr     *Trainer
	policy Policy
	// target is the starting width — the membership Grow steers back toward.
	target int
	stats  SupervisorStats
	// clean counts consecutive completed steps since the last failure or
	// membership change; re-grow triggers on it.
	clean int
	// last is the last completed iteration — the step the final checkpoint's
	// parameters correspond to.
	last int
	// sleep is time.Sleep, swappable in tests.
	sleep func(time.Duration)
}

// NewSupervisor wraps tr in a supervisor. The trainer's current width
// becomes the re-grow target. MinReplicas defaults to 1 and must not exceed
// the trainer's width. The trainer keeps its collective deadline.
func NewSupervisor(tr *Trainer, p Policy) (*Supervisor, error) {
	if tr == nil {
		return nil, errors.New("dist: nil trainer")
	}
	if p.MinReplicas <= 0 {
		p.MinReplicas = 1
	}
	if p.MinReplicas > tr.Devices() {
		return nil, fmt.Errorf("dist: MinReplicas %d exceeds trainer width %d", p.MinReplicas, tr.Devices())
	}
	if p.CheckpointDir != "" {
		// Fail at construction, not at the first failure, if the artifact
		// directory cannot exist.
		if err := os.MkdirAll(p.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: checkpoint directory: %w", err)
		}
	}
	return &Supervisor{tr: tr, policy: p, target: tr.Devices(), sleep: time.Sleep}, nil
}

// Trainer returns the CURRENT trainer incarnation — after a supervised run
// this is the trainer that executed the final steps (possibly shrunken or
// re-grown relative to the one NewSupervisor was given).
func (s *Supervisor) Trainer() *Trainer { return s.tr }

// Stats returns a snapshot of the supervisor's counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// Train runs iters supervised steps, invoking cb (when non-nil) after each
// completed one. On a failed step it applies the replace → shrink → abort
// decision tree and, unless aborting, REPLAYS the failed iteration on the
// rebuilt trainer — completed-step statistics are never lost or duplicated.
//
// The returned history holds every completed step. A nil error means all
// iters completed; otherwise the error is the abort cause and the history is
// the prefix that committed. Either way, when CheckpointDir is set the last
// committed parameters are on disk as final-step*.pvq by the time Train
// returns.
func (s *Supervisor) Train(iters int, cb func(core.IterStats)) ([]core.IterStats, error) {
	hist := make([]core.IterStats, 0, iters)
	for i := 1; i <= iters; {
		s.maybeGrow()
		st, err := s.tr.Step(i)
		if errors.Is(err, core.ErrNonFinite) {
			return hist, s.abort(err)
		}
		if err != nil {
			if herr := s.handleFailure(err); herr != nil {
				return hist, herr
			}
			continue // replay iteration i on the rebuilt trainer
		}
		hist = append(hist, st)
		if cb != nil {
			cb(st)
		}
		s.last = i
		s.clean++
		i++
	}
	if err := s.finalCheckpoint(); err != nil {
		return hist, fmt.Errorf("dist: final checkpoint: %w", err)
	}
	return hist, nil
}

// maybeGrow attempts to re-admit ranks back to the starting width once
// growAfter consecutive clean steps have passed below it. A failed attempt
// (no capacity, bad builder) leaves the trainer untouched and resets the
// clean-step counter, so attempts stay paced rather than firing every step.
func (s *Supervisor) maybeGrow() {
	p := &s.policy
	if p.Builder == nil || s.tr.Devices() >= s.target || s.clean < growAfter {
		return
	}
	s.stats.GrowAttempts++
	s.clean = 0
	nt, err := s.tr.Grow(p.CheckpointDir, s.target-s.tr.Devices(), p.Builder)
	if err != nil {
		return
	}
	s.tr = nt
	s.stats.Grows++
}

// handleFailure applies the decision tree to a failed step. A nil return
// means the trainer was rebuilt (replaced or shrunken) and the caller should
// replay the failed iteration; a non-nil return is the abort cause, with the
// final checkpoint already written.
func (s *Supervisor) handleFailure(cause error) error {
	s.stats.Failures++
	s.clean = 0
	dead := s.tr.DeadRanks()
	if len(dead) == 0 {
		// Condemned without a dead rank (explicit abort, straggler past the
		// deadline): there is no membership fix for this.
		return s.abort(fmt.Errorf("dist: group condemned without a dead rank: %w", cause))
	}

	// 1. REPLACE: bounded retries with exponential backoff.
	var lastRecover error
	if s.policy.Builder != nil {
		wait := backoff
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if attempt > 0 {
				s.stats.Retries++
				s.stats.BackoffTotal += wait
				s.sleep(wait)
				wait = min(2*wait, backoffMax)
			}
			nt, err := s.tr.Recover(s.policy.CheckpointDir, s.policy.Builder)
			if err == nil {
				s.tr = nt
				s.stats.Replacements++
				return nil
			}
			lastRecover = err
		}
	}

	// 2. SHRINK: only above the floor.
	if survivors := s.tr.Devices() - len(dead); survivors < s.policy.MinReplicas {
		s.stats.FloorAborts++
		return s.abort(errors.Join(
			fmt.Errorf("dist: %d survivors below MinReplicas floor %d: %w", survivors, s.policy.MinReplicas, cause),
			lastRecover))
	}
	nt, err := s.tr.Shrink()
	if err != nil {
		return s.abort(errors.Join(cause, lastRecover, err))
	}
	s.tr = nt
	s.stats.Shrinks++
	return nil
}

// abort finalizes a terminating failure: the final checkpoint is written
// (best effort — a write error joins the cause rather than masking it) and
// the cause is returned for Train to surface.
func (s *Supervisor) abort(cause error) error {
	if err := s.finalCheckpoint(); err != nil {
		return errors.Join(cause, fmt.Errorf("dist: final checkpoint: %w", err))
	}
	return cause
}

// finalCheckpoint writes the last committed parameters to
// <CheckpointDir>/final-step%04d.pvq. Any replica's bytes will do — dead
// ranks included, since a dead rank's parameters stopped advancing at the
// last committed step like everyone else's — but a survivor is preferred.
func (s *Supervisor) finalCheckpoint() error {
	if s.policy.CheckpointDir == "" {
		return nil
	}
	dead, src := s.tr.DeadRanks(), 0
	for slices.Contains(dead, src) && src+1 < len(s.tr.Reps) {
		src++
	}
	path := filepath.Join(s.policy.CheckpointDir, fmt.Sprintf("final-step%04d.pvq", s.last))
	if err := nn.SaveFile(path, s.tr.Reps[src].Model); err != nil {
		return err
	}
	s.stats.FinalCheckpoint = path
	return nil
}
