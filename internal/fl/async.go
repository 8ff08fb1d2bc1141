package fl

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/wire"
)

// AsyncConfig parameterises the asynchronous buffered-federation mode
// (ServerConfig.Async, driven by Server.RunAsync). The design follows
// FedBuff: there is no round barrier — every client always holds a
// model tagged with the version it was cut from, trains at its own
// pace, and pushes its update whenever ready; the server folds arrivals
// into a staleness-weighted buffer and applies the buffered aggregate
// as soon as GoalUpdates have accumulated, which bumps the model
// version. A device is re-armed with the then-current model the moment
// its push is processed, so fast devices contribute often and slow
// devices contribute late-but-discounted instead of idling the fleet
// behind a deadline.
type AsyncConfig struct {
	// Enabled turns the asynchronous mode on; ServerConfig.Rounds then
	// counts buffered applications (model versions) instead of
	// synchronous cycles. Run/StepRound ignore it — use RunAsync.
	Enabled bool
	// GoalUpdates (K) is the buffer goal: the buffered aggregate is
	// applied once this many updates have been folded since the last
	// application. Defaults to MinClients.
	GoalUpdates int
	// MaxStaleness, when positive, discards updates trained on a model
	// more than this many versions behind the current one
	// (RoundStats.LateDiscarded); the pushing device is immediately
	// re-armed with a fresh model and stays healthy. 0 folds any
	// staleness, discounted.
	MaxStaleness int
	// Buffer caps the arrival fan-in channel shared by the
	// per-connection readers. When the server falls behind, readers
	// block — backpressure reaches the transports instead of growing
	// server memory. Defaults to 2×GoalUpdates; values above the fleet
	// size are clamped to it.
	Buffer int
	// MinPushInterval, when positive, rate-limits folds per device: a
	// push arriving within the interval of the device's previous
	// accepted fold is discarded (RoundStats.Duplicates) though the
	// device is still re-armed, so one fast device cannot flood the
	// buffer and crowd out the rest of the fleet.
	MinPushInterval time.Duration
	// MaxViolations is the per-device health budget: this many
	// consecutive protocol violations (duplicate pushes without an
	// outstanding model) quarantine the device — probation under
	// QuarantineRounds, permanent otherwise. Defaults to 3; a folded
	// update resets the count.
	MaxViolations int
	// Discount maps an update's staleness s (current version minus the
	// version it trained on, ≥0) to a weight multiplier in (0,1]. The
	// folded weight is the FedAvg example weight times this. Defaults
	// to DefaultStalenessDiscount.
	Discount func(staleness int) float64
}

// DefaultStalenessDiscount is the polynomial staleness discount
// 1/√(1+s) (FedBuff's choice with a=½): a fresh update folds at full
// weight, one trained 3 versions back at half.
func DefaultStalenessDiscount(s int) float64 {
	return 1 / math.Sqrt(1+float64(s))
}

// asyncClient is the server-side health/book-keeping record for one
// device in an asynchronous session, owned by the RunAsync goroutine.
type asyncClient struct {
	// sentVersion is the model version most recently sent; a valid push
	// must echo it (GradUp.Version).
	sentVersion int
	// awaiting is set while a model is outstanding — exactly one push
	// is owed. A push without it is a duplicate.
	awaiting bool
	// lastFold is the time of the last accepted fold (rate limiting).
	lastFold time.Time
	// strikes counts consecutive protocol violations.
	strikes int
	// doneSent marks a delivered end-of-session Done.
	doneSent bool
}

// RunAsync executes selection followed by an asynchronous buffered
// federation session over the given client connections: cfg.Rounds
// buffered applications of cfg.Async.GoalUpdates staleness-discounted
// updates each. It returns the number of selected clients. The round
// trace holds one entry per applied version: Responded counts folded
// updates, LateDiscarded over-stale pushes, Duplicates duplicate or
// rate-limited ones, and WeightTotal the discounted weight actually
// applied.
//
// Asynchronous sessions are plaintext-only for now: SecAgg and Partials
// are rejected (a masked cohort needs a round barrier for its masks to
// cancel), and the protection Planner and AdaptiveCodec are ignored.
func (s *Server) RunAsync(conns []Conn) (int, error) {
	if !s.cfg.Async.Enabled {
		return 0, errors.New("fl: RunAsync without Async.Enabled")
	}
	if s.cfg.SecAgg || s.cfg.Partials {
		return 0, errors.New("fl: asynchronous mode does not compose with SecAgg or Partials")
	}
	open := s.Open
	if s.Resumable() {
		// Journal-recovered session: rejoin the roster and continue at
		// the first unwatermarked version.
		open = s.Resume
	}
	n, err := open(conns)
	if err != nil {
		return n, err
	}
	if err := s.runAsync(); err != nil {
		s.Abort()
		return n, fmt.Errorf("fl: async: %w", err)
	}
	// Every surviving client has already received its Done; Abort just
	// tears down the readers and connections.
	s.Abort()
	return n, nil
}

// runAsync is the buffered-federation event loop. Single-goroutine by
// design: arrivals from every connection reader funnel through the
// bounded channel, so folds, version bumps and replies are totally
// ordered and the trace is deterministic for a deterministic arrival
// order.
func (s *Server) runAsync() error {
	cfg := s.cfg.Async
	clients := make(map[*session]*asyncClient, len(s.sessions))
	for _, sess := range s.sessions {
		clients[sess] = &asyncClient{}
	}

	version := s.nextRound                // 0 fresh; the first unwatermarked version after recovery
	frames := make(map[wire.Codec][]byte) // current version, per codec
	agg := NewAggregator(s.state)
	stats := RoundStats{Round: version, Sampled: len(s.sessions)}
	var reasons []string

	s.asyncRoundStarted(version)
	// One span per buffered version window (async has no sync phases).
	// The version-scoped trace ID correlates this window's spans with
	// the ModelDown frames cut from it across the fleet.
	s.ob.setTrace(obs.RoundTrace(version))
	verSpan := s.ob.spanStart("version", version)

	// Initial distribution: every selected client gets version 0,
	// encoded once per negotiated codec, sent in parallel.
	sendErrs := make([]error, len(s.sessions))
	var sends sync.WaitGroup
	for i, sess := range s.sessions {
		payload := s.asyncFrame(frames, version, sess.codec)
		sends.Add(1)
		go func(i int, sess *session, payload []byte) {
			defer sends.Done()
			sendErrs[i] = sess.conn.SendFrame(MsgModelDown, payload)
		}(i, sess, payload)
	}
	sends.Wait()
	for i, sess := range s.sessions {
		if sendErrs[i] != nil {
			s.quarantineAt(sess, version, false, fmt.Errorf("sending model: %w", sendErrs[i]), &stats, &reasons)
			continue
		}
		ac := clients[sess]
		ac.sentVersion = version
		ac.awaiting = true
	}

	for version < s.cfg.Rounds {
		if err := s.asyncCheckLiveness(clients, &reasons); err != nil {
			s.closeRound(stats, false, nil)
			return err
		}
		a := <-s.arrivals
		pushStart := s.ob.now()
		sess := a.sess
		if sess.quarantined {
			continue // residue from an already-closed connection
		}
		ac := clients[sess]
		if a.err != nil {
			ac.awaiting = false
			s.quarantineAt(sess, version, errors.Is(a.err, ErrDecode), fmt.Errorf("transport: %w", a.err), &stats, &reasons)
			continue
		}
		switch m := a.msg.(type) {
		case *CodecSwitch:
			continue // ack, nothing to fold
		case *GradUp:
			if !ac.awaiting {
				// Duplicate push: nothing is outstanding for this device.
				// Discard without a reply (none is owed) and strike its
				// health budget.
				stats.Duplicates++
				ac.strikes++
				if s.cfg.Hooks.UpdatePushed != nil {
					s.cfg.Hooks.UpdatePushed(version, sess.device, false)
				}
				if ac.strikes >= cfg.MaxViolations {
					s.ob.observeStrikes(ac.strikes)
					s.quarantineAt(sess, version, true, fmt.Errorf("%d consecutive duplicate pushes", ac.strikes), &stats, &reasons)
				}
				continue
			}
			ac.awaiting = false
			if int(m.Version) != ac.sentVersion {
				s.quarantineAt(sess, version, true, fmt.Errorf("update for version %d, expected %d", m.Version, ac.sentVersion), &stats, &reasons)
				if s.cfg.Hooks.UpdatePushed != nil {
					s.cfg.Hooks.UpdatePushed(version, sess.device, false)
				}
				continue
			}
			staleness := version - int(m.Version)
			s.ob.observeStaleness(staleness)
			now := s.cfg.Clock.Now()
			folded := false
			switch {
			case cfg.MaxStaleness > 0 && staleness > cfg.MaxStaleness:
				stats.LateDiscarded++
			case cfg.MinPushInterval > 0 && !ac.lastFold.IsZero() && now.Sub(ac.lastFold) < cfg.MinPushInterval:
				stats.Duplicates++
			default:
				weight := 1.0
				if m.Examples > 0 {
					weight = float64(min(m.Examples, MaxExampleWeight))
				}
				weight *= cfg.Discount(staleness)
				if err := s.foldUpdate(agg, sess, m, weight); err != nil {
					s.quarantineAt(sess, version, true, err, &stats, &reasons)
					if s.cfg.Hooks.UpdatePushed != nil {
						s.cfg.Hooks.UpdatePushed(version, sess.device, false)
					}
					continue
				}
				folded = true
				ac.strikes = 0
				ac.lastFold = now
				if s.cfg.Hooks.UpdateFolded != nil {
					s.cfg.Hooks.UpdateFolded(version, sess.device)
				}
			}
			if s.cfg.Hooks.UpdatePushed != nil {
				s.cfg.Hooks.UpdatePushed(version, sess.device, folded)
			}
			if folded && agg.Count() >= cfg.GoalUpdates {
				// Goal reached: apply the buffered aggregate, bump the
				// version, open the next window.
				stats.Responded = agg.Count()
				stats.WeightTotal = agg.Weight()
				mean, err := agg.Mean()
				if err != nil {
					s.closeRound(stats, false, nil)
					return err
				}
				stats.UpdateNorm = UpdateNorm(mean)
				ApplyUpdate(s.state, mean, 1.0)
				s.closeRound(stats, true, mean)
				verSpan.End()
				version++
				if version >= s.cfg.Rounds {
					break
				}
				agg = NewAggregator(s.state)
				stats = RoundStats{Round: version, Sampled: s.asyncLive(version)}
				reasons = nil
				frames = make(map[wire.Codec][]byte)
				s.asyncRoundStarted(version)
				s.ob.setTrace(obs.RoundTrace(version))
				verSpan = s.ob.spanStart("version", version)
				// Devices whose probation window just elapsed rejoin here:
				// they hold no model (their last interaction was a failure),
				// so hand them the fresh version.
				s.asyncReengage(version, clients, frames, &stats, &reasons)
			}
			// Re-arm the pusher with the current model — fresh if its fold
			// just triggered the application.
			s.asyncReply(sess, ac, version, frames, &stats, &reasons)
			s.ob.observePush(pushStart)
		case *ErrorMsg:
			ac.awaiting = false
			s.quarantineAt(sess, version, true, fmt.Errorf("client error: %s", m.Text), &stats, &reasons)
		default:
			ac.awaiting = false
			s.quarantineAt(sess, version, true, fmt.Errorf("unexpected %T in async session", a.msg), &stats, &reasons)
		}
	}
	return s.asyncDrain(clients)
}

// asyncRoundStarted journals the version boundary and fires the
// RoundStarted hook with the devices eligible at the given version.
func (s *Server) asyncRoundStarted(version int) {
	s.journalAppend(&journal.Record{Type: journal.RecRoundOpen, Round: version})
	if s.cfg.Hooks.RoundStarted == nil {
		return
	}
	var names []string
	for _, sess := range s.sessions {
		if sess.eligible(version) {
			names = append(names, sess.device)
		}
	}
	s.cfg.Hooks.RoundStarted(version, names)
}

// asyncLive counts sessions eligible at the version.
func (s *Server) asyncLive(version int) int {
	n := 0
	for _, sess := range s.sessions {
		if sess.eligible(version) {
			n++
		}
	}
	return n
}

// asyncFrame returns the encode-once ModelDown frame for a version and
// codec.
func (s *Server) asyncFrame(frames map[wire.Codec][]byte, version int, codec wire.Codec) []byte {
	payload, ok := frames[codec]
	if !ok {
		down := &ModelDown{Round: version, Plain: s.state, Version: uint64(version), Trace: obs.RoundTrace(version)}
		payload = EncodeMessageCodec(down, codec)
		frames[codec] = payload
	}
	return payload
}

// asyncReply re-arms one device with the current model version (or a
// Done once the session's version budget is exhausted).
func (s *Server) asyncReply(sess *session, ac *asyncClient, version int, frames map[wire.Codec][]byte, stats *RoundStats, reasons *[]string) {
	if sess.quarantined || !sess.eligible(version) {
		return // a probationed device is re-engaged when its window ends
	}
	if ac.awaiting {
		return // already armed (e.g. by the reengage sweep): one push owed
	}
	if version >= s.cfg.Rounds {
		s.asyncSendDone(sess, ac)
		return
	}
	if err := sess.conn.SendFrame(MsgModelDown, s.asyncFrame(frames, version, sess.codec)); err != nil {
		s.quarantineAt(sess, version, false, fmt.Errorf("sending model: %w", err), stats, reasons)
		return
	}
	ac.sentVersion = version
	ac.awaiting = true
}

// asyncReengage hands the current model to every eligible device with
// no model outstanding — devices returning from probation.
func (s *Server) asyncReengage(version int, clients map[*session]*asyncClient, frames map[wire.Codec][]byte, stats *RoundStats, reasons *[]string) {
	for _, sess := range s.sessions {
		ac := clients[sess]
		if sess.quarantined || ac.awaiting || !sess.eligible(version) {
			continue
		}
		s.asyncReply(sess, ac, version, frames, stats, reasons)
	}
}

// asyncCheckLiveness fails the session when it can no longer make
// progress: fewer surviving devices than MinClients, or no device owes
// a push (every survivor idle or stuck on probation) so the buffer can
// never fill.
func (s *Server) asyncCheckLiveness(clients map[*session]*asyncClient, reasons *[]string) error {
	surviving, awaiting := 0, 0
	for _, sess := range s.sessions {
		if sess.quarantined {
			continue
		}
		surviving++
		if clients[sess].awaiting {
			awaiting++
		}
	}
	if surviving < s.cfg.MinClients {
		return fmt.Errorf("%w: %d surviving clients, need %d (%s)", ErrNotEnoughClients, surviving, s.cfg.MinClients, joinReasons(*reasons))
	}
	if awaiting == 0 {
		return fmt.Errorf("%w: no client owes an update (%s)", ErrNotEnoughClients, joinReasons(*reasons))
	}
	return nil
}

func joinReasons(reasons []string) string {
	if len(reasons) == 0 {
		return "no failures recorded"
	}
	out := reasons[0]
	for _, r := range reasons[1:] {
		out += "; " + r
	}
	return out
}

// asyncSendDone delivers the end-of-session Done with the final model,
// best effort, at most once per device.
func (s *Server) asyncSendDone(sess *session, ac *asyncClient) {
	if ac.doneSent || sess.quarantined {
		return
	}
	ac.doneSent = true
	ac.awaiting = false
	_ = sess.conn.Send(&Done{Final: s.state})
}

// asyncDrain finishes the session after the last application: idle
// devices get their Done immediately; devices still training get it as
// the reply to their final push. The wait for in-flight trainers is
// bounded by RoundDeadline when one is configured.
func (s *Server) asyncDrain(clients map[*session]*asyncClient) error {
	// Drain-time failures go through the same quarantine path as
	// mid-session ones, so the ClientQuarantined hook, the journal
	// record and the device history all still happen — a device that
	// dies while we wait for its last push must not silently vanish.
	// The accounting lands in a local stats block: the final version's
	// trace entry is already committed.
	var drainStats RoundStats
	var drainReasons []string
	outstanding := 0
	for _, sess := range s.sessions {
		ac := clients[sess]
		if sess.quarantined {
			continue
		}
		if ac.awaiting {
			outstanding++
			continue
		}
		s.asyncSendDone(sess, ac)
	}
	var deadlineC <-chan time.Time
	if s.cfg.RoundDeadline > 0 {
		timer := s.cfg.Clock.NewTimer(s.cfg.RoundDeadline)
		defer timer.Stop()
		deadlineC = timer.C
	}
	for outstanding > 0 {
		select {
		case a := <-s.arrivals:
			sess := a.sess
			ac := clients[sess]
			if sess.quarantined {
				continue
			}
			if a.err != nil {
				if ac.awaiting {
					ac.awaiting = false
					outstanding--
				}
				s.quarantineAt(sess, s.cfg.Rounds, false, fmt.Errorf("transport during drain: %w", a.err), &drainStats, &drainReasons)
				continue
			}
			if !ac.awaiting {
				continue // duplicate or ack during drain: ignore
			}
			ac.awaiting = false
			outstanding--
			s.asyncSendDone(sess, ac)
		case <-deadlineC:
			// In-flight trainers past the drain deadline are abandoned;
			// Abort will close their connections.
			return nil
		}
	}
	return nil
}
