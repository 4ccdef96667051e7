package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// Event is one entry in a run's progress log, streamed to clients as a
// Server-Sent Event. Seq is a per-run sequence number starting at 1;
// clients reconnecting with Last-Event-ID replay from the log, so no
// event is lost across a dropped connection (the log is capped — see
// eventLogCap — and very chatty runs replay a trailing window).
type Event struct {
	// Seq is the event's position in the run's log, starting at 1.
	Seq int `json:"seq"`
	// Type names the event: "queued", "started", "sweep", "chunks",
	// "cached", "done", or "error".
	Type string `json:"type"`
	// Data is the event payload, already JSON-encoded.
	Data json.RawMessage `json:"data"`
}

// eventLogCap bounds a run's replay buffer. Progress events beyond the
// cap drop the oldest entries; terminal events are always retained
// because they are appended last.
const eventLogCap = 4096

// eventLog is one run's append-only progress log plus its live
// subscribers. Emit appends and fans out; subscribe returns the replay
// slice and a channel carrying everything after it. Closing the log
// (terminal event reached) closes all subscriber channels once they
// have drained.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	first  int // Seq of events[0]; > 1 once the cap has trimmed
	nextID int
	subs   map[chan Event]struct{}
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{nextID: 1, first: 1, subs: make(map[chan Event]struct{})}
}

// emit appends an event with the given type and payload (marshalled to
// JSON) and delivers it to every subscriber. Safe for concurrent use;
// a no-op after close.
func (l *eventLog) emit(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev := Event{Seq: l.nextID, Type: typ, Data: data}
	l.nextID++
	l.events = append(l.events, ev)
	if len(l.events) > eventLogCap {
		drop := len(l.events) - eventLogCap
		l.events = l.events[drop:]
		l.first += drop
	}
	for ch := range l.subs {
		// Subscriber channels are buffered to the log cap; a subscriber
		// that cannot keep up loses its slot rather than stalling the run.
		select {
		case ch <- ev:
		default:
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// close marks the log terminal and closes every subscriber channel.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

// subscribe returns every event already logged after the given sequence
// number (0 replays everything retained) and, unless the log is already
// closed, a channel delivering subsequent events. The channel closes
// when the run reaches a terminal event or the subscriber falls too far
// behind; cancel unsubscribes early.
func (l *eventLog) subscribe(after int) (replay []Event, ch chan Event, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := after + 1 - l.first
	if start < 0 {
		start = 0
	}
	if start < len(l.events) {
		replay = append(replay, l.events[start:]...)
	}
	if l.closed {
		return replay, nil, func() {}
	}
	ch = make(chan Event, eventLogCap)
	l.subs[ch] = struct{}{}
	cancel = func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
	return replay, ch, cancel
}

// lastEventID parses a resume point: the Last-Event-ID header when set,
// else the lastEventID query parameter, else 0 (replay the whole log). A
// set value must be a non-negative decimal event number; anything else
// is an error.
func lastEventID(header, query string) (int, error) {
	name, v := "Last-Event-ID", header
	if v == "" {
		name, v = "lastEventID", query
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s %q is not a non-negative event number", name, v)
	}
	return n, nil
}

// writeSSE streams a run's event log to one client in Server-Sent
// Events framing until the log closes or the client disconnects. The
// Last-Event-ID header (or lastEventID query parameter) resumes after
// the given sequence number.
func writeSSE(w http.ResponseWriter, r *http.Request, log *eventLog, after int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := log.subscribe(after)
	defer cancel()
	for _, ev := range replay {
		writeEvent(w, ev)
	}
	fl.Flush()
	if ch == nil {
		return // log already terminal; replay was the whole story
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeEvent(w, ev)
			// Drain whatever else is ready before flushing, so a burst of
			// chunk events costs one flush, not one per event.
		drain:
			for {
				select {
				case more, ok := <-ch:
					if !ok {
						fl.Flush()
						return
					}
					writeEvent(w, more)
				default:
					break drain
				}
			}
			fl.Flush()
		}
	}
}

// writeEvent renders one event in SSE wire framing.
func writeEvent(w http.ResponseWriter, ev Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
}
