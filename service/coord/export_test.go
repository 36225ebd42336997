package coord

import (
	"context"
	"errors"
	"time"
)

// StealStepper drives a coordinator's steal monitor by hand: the
// monitor runs a round only when a test calls Step, and Step returns
// once that round has finished. Tests see exactly the rounds they ask
// for, at the moments they choose, instead of racing a ticker.
type StealStepper struct {
	steps chan chan struct{}
}

// NewStepped is New with the steal monitor's ticker replaced by the
// returned stepper.
func NewStepped(cfg Config) (*Coordinator, *StealStepper, error) {
	s := &StealStepper{steps: make(chan chan struct{})}
	c, err := newCoordinator(cfg, s.rounds)
	return c, s, err
}

// rounds is the stepped tick source: one round per Step until ctx ends.
func (s *StealStepper) rounds(ctx context.Context, round func()) {
	for {
		select {
		case <-ctx.Done():
			return
		case done := <-s.steps:
			round()
			close(done)
		}
	}
}

// Step runs one steal round on the running job's monitor and waits for
// it to finish. It fails when no monitor takes the step within timeout
// (no job is running, or stealing is disabled).
func (s *StealStepper) Step(timeout time.Duration) error {
	done := make(chan struct{})
	select {
	case s.steps <- done:
	case <-time.After(timeout):
		return errors.New("coord: no steal monitor took the step")
	}
	<-done
	return nil
}
