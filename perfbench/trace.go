package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// tracer records spans at the boundaries the benchmark owns: the party
// entry points (Client.Query, Mediator.HandleSession, Source.Serve),
// every Conn end, and the session opens. Spans stay in memory until the
// run ends. A nil tracer records nothing and leaves every link
// unwrapped except the mediator's source links, whose bytes are always
// counted.
//
// Spans of one query share its ID. The client knows it (it sets
// Params.QueryID); the mediator's handler joins by the mux session ID of
// the client link; the mediator's source links and the sources read it
// from the first message on the link, the PartialQuery.
type tracer struct {
	epoch    time.Time
	regEpoch time.Time // epoch of the program's telemetry registry

	mu       sync.Mutex
	spans    []*spanRec
	sidQuery map[uint64]string  // client-link session ID → query ID
	links    map[linkKey]*scope // mediator's source links by (source, session ID)
	largest  transport.Message  // copy of the largest message seen
	nextID   atomic.Int64
}

type linkKey struct {
	source string
	sid    uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sidQuery: make(map[uint64]string), links: make(map[linkKey]*scope)}
}

// scope is one party's view of one query: a party span and the link
// ends it uses. Its query ID is set on creation (client), learned from
// the first message on the link (source links), or resolved when the
// run ends (the mediator's client link, by session ID).
type scope struct {
	tr     *tracer
	party  string // "client", "mediator" or "source:S1"
	source string // source name of a source link, at either end
	sid    uint64
	learn  bool // read the query ID from the first message

	mu    sync.Mutex
	qid   string
	tried bool
}

type spanRec struct {
	id         int64
	name       string
	sc         *scope
	root       bool // a party span
	start, end time.Time
	bytes      int
}

func (t *tracer) add(sp *spanRec) {
	sp.id = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// run runs f as the scope's party span. Nil-safe: an untraced scope
// just runs f.
func (sc *scope) run(name string, f func()) {
	if sc == nil {
		f()
		return
	}
	start := time.Now()
	f()
	sc.tr.add(&spanRec{name: name, sc: sc, root: true, start: start, end: time.Now()})
}

// partialQueryID is the part of mediation.PartialQuery the tracer reads;
// gob skips the other fields.
type partialQueryID struct {
	Params struct{ QueryID string }
}

// observe learns the scope's query ID from the first message on a
// source link.
func (sc *scope) observe(m transport.Message) {
	if !sc.learn {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.tried {
		return
	}
	sc.tried = true
	var pq partialQueryID
	if payload, err := transport.Payload(m); err == nil && transport.Decode(payload, &pq) == nil {
		sc.qid = pq.Params.QueryID
	}
}

// queryID resolves the scope's query ID ("" when unknown).
func (sc *scope) queryID() string {
	sc.mu.Lock()
	qid := sc.qid
	sc.mu.Unlock()
	if qid != "" {
		return qid
	}
	t := sc.tr
	switch {
	case sc.party == "mediator" && sc.source == "":
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.sidQuery[sc.sid]
	case strings.HasPrefix(sc.party, "source:"):
		t.mu.Lock()
		peer := t.links[linkKey{sc.source, sc.sid}]
		t.mu.Unlock()
		if peer != nil {
			peer.mu.Lock()
			defer peer.mu.Unlock()
			return peer.qid
		}
	}
	return ""
}

// linkConn wraps one link end. It keeps SessionID so the program's
// mux-session annotation still works through it.
type linkConn struct {
	transport.Conn
	sc    *scope       // nil: no tracing
	count *linkCounter // non-nil: count the link and its bytes on close
	once  sync.Once
}

func (c *linkConn) SessionID() uint64 { return sessionID(c.Conn) }

func sessionID(conn transport.Conn) uint64 {
	if s, ok := conn.(interface{ SessionID() uint64 }); ok {
		return s.SessionID()
	}
	return 0
}

func (c *linkConn) Send(m transport.Message) error {
	if c.sc == nil {
		return c.Conn.Send(m)
	}
	c.sc.observe(m)
	start := time.Now()
	err := c.Conn.Send(m)
	end := time.Now()
	t := c.sc.tr
	t.noteSize(m)
	t.add(&spanRec{name: "transport.send", sc: c.sc, start: start, end: end, bytes: m.Size()})
	return err
}

func (c *linkConn) Recv() (transport.Message, error) {
	if c.sc == nil {
		return c.Conn.Recv()
	}
	start := time.Now()
	m, err := c.Conn.Recv()
	c.traceRecv(m, err, start)
	return m, err
}

func (c *linkConn) Expect(typ string) (transport.Message, error) {
	if c.sc == nil {
		return c.Conn.Expect(typ)
	}
	start := time.Now()
	m, err := c.Conn.Expect(typ)
	c.traceRecv(m, err, start)
	return m, err
}

func (c *linkConn) traceRecv(m transport.Message, err error, start time.Time) {
	end := time.Now()
	if err == nil {
		c.sc.observe(m)
	}
	c.sc.tr.add(&spanRec{name: "transport.recv", sc: c.sc, start: start, end: end, bytes: m.Size()})
}

func (c *linkConn) Close() error {
	err := c.Conn.Close()
	if c.count != nil {
		c.once.Do(func() {
			st := c.Conn.Stats()
			c.count.bytes.Add(st.BytesSent() + st.BytesRecv())
			c.count.closed.Add(1)
		})
	}
	return err
}

// noteSize keeps a copy of the largest message, the input of the codec
// kernel timing.
func (t *tracer) noteSize(m transport.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.Size() > t.largest.Size() {
		t.largest = transport.Message{Type: m.Type, Body: append([]byte(nil), m.Body...)}
	}
}

// clientScope starts the client's scope of one query.
func (t *tracer) clientScope(qid string) *scope {
	if t == nil {
		return nil
	}
	return &scope{tr: t, party: "client", qid: qid}
}

// clientLink records the client's session open and wraps its stream.
func (t *tracer) clientLink(sc *scope, st *session.Stream, openStart time.Time) transport.Conn {
	if t == nil {
		return st
	}
	sc.sid = st.SessionID()
	t.mu.Lock()
	t.sidQuery[sc.sid] = sc.qid
	t.mu.Unlock()
	t.add(&spanRec{name: "session.open", sc: sc, start: openStart, end: time.Now()})
	return &linkConn{Conn: st, sc: sc}
}

// mediatorLink wraps a session the mediator opened to a source through
// the pool; count records it and its bytes when it closes.
func (t *tracer) mediatorLink(source string, st *session.Stream, openStart time.Time, count *linkCounter) transport.Conn {
	if t == nil {
		return &linkConn{Conn: st, count: count}
	}
	sc := &scope{tr: t, party: "mediator", source: source, sid: st.SessionID(), learn: true}
	t.mu.Lock()
	t.links[linkKey{source, sc.sid}] = sc
	t.mu.Unlock()
	t.add(&spanRec{name: "session.open", sc: sc, start: openStart, end: time.Now()})
	return &linkConn{Conn: st, sc: sc, count: count}
}

// mediator is the mediator server's handler.
func (t *tracer) mediator(med *mediation.Mediator, conn transport.Conn) error {
	if t == nil {
		return med.HandleSession(conn)
	}
	sc := &scope{tr: t, party: "mediator", sid: sessionID(conn)}
	var err error
	sc.run("mediator.session", func() { err = med.HandleSession(&linkConn{Conn: conn, sc: sc}) })
	return err
}

// source is a datasource server's handler.
func (t *tracer) source(name string, src *mediation.Source, conn transport.Conn) error {
	if t == nil {
		return src.Serve(conn)
	}
	sc := &scope{tr: t, party: "source:" + name, source: name, sid: sessionID(conn), learn: true}
	var err error
	sc.run("source.serve", func() { err = src.Serve(&linkConn{Conn: conn, sc: sc}) })
	return err
}

// interval is a half-open time range in nanoseconds since the epoch.
type interval struct{ a, b int64 }

// coveredWithin returns how much of [a, b) the intervals cover.
func coveredWithin(ivs []interval, a, b int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		if iv.a < a {
			iv.a = a
		}
		if iv.b > b {
			iv.b = b
		}
		if iv.b > iv.a {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	started := false
	for _, iv := range clipped {
		if !started || iv.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = iv.a, iv.b, true
		} else if iv.b > curB {
			curB = iv.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// partyKind folds the two sources into one row.
func partyKind(party string) string {
	if strings.HasPrefix(party, "source:") {
		return "source"
	}
	return party
}

// layerTimes holds sums over the traced spans of the measured queries;
// times are in nanoseconds.
type layerTimes struct {
	self, wait  map[string]int64 // by party kind
	open        int64
	admitWait   int64
	send        int64
	sends       int
	inflightMax int // most mediator sessions in progress at once
}

// layers splits each query's party spans into self time and time
// blocked in Recv/Expect, and sums the session-layer spans. Only spans
// of queries whose ID starts with prefix count.
func (t *tracer) layers(prefix string) layerTimes {
	t.mu.Lock()
	spans := append([]*spanRec(nil), t.spans...)
	t.mu.Unlock()
	type key struct{ party, qid string }
	waits := make(map[key][]interval)
	var roots []*spanRec
	qids := make(map[*spanRec]string, len(spans))
	openStart := make(map[string]int64)
	medStart := make(map[string]int64)
	lt := layerTimes{self: map[string]int64{}, wait: map[string]int64{}}
	for _, sp := range spans {
		qid := sp.sc.queryID()
		if !strings.HasPrefix(qid, prefix) {
			continue
		}
		qids[sp] = qid
		a, b := int64(sp.start.Sub(t.epoch)), int64(sp.end.Sub(t.epoch))
		switch {
		case sp.root:
			roots = append(roots, sp)
			if sp.sc.party == "mediator" {
				medStart[qid] = a
			}
		case sp.name == "transport.recv":
			k := key{sp.sc.party, qid}
			waits[k] = append(waits[k], interval{a, b})
		case sp.name == "transport.send":
			lt.send += b - a
			lt.sends++
		case sp.name == "session.open":
			lt.open += b - a
			if sp.sc.party == "client" {
				openStart[qid] = a
			}
		}
	}
	type edge struct {
		at    int64
		delta int
	}
	var sessions []edge
	for _, sp := range roots {
		a, b := int64(sp.start.Sub(t.epoch)), int64(sp.end.Sub(t.epoch))
		w := coveredWithin(waits[key{sp.sc.party, qids[sp]}], a, b)
		kind := partyKind(sp.sc.party)
		lt.wait[kind] += w
		lt.self[kind] += b - a - w
		if kind == "mediator" {
			sessions = append(sessions, edge{a, 1}, edge{b, -1})
		}
	}
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].at != sessions[j].at {
			return sessions[i].at < sessions[j].at
		}
		return sessions[i].delta < sessions[j].delta
	})
	inflight := 0
	for _, e := range sessions {
		inflight += e.delta
		if inflight > lt.inflightMax {
			lt.inflightMax = inflight
		}
	}
	for qid, open := range openStart {
		if start, ok := medStart[qid]; ok && start > open {
			lt.admitWait += start - open
		}
	}
	return lt
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the benchmark's spans and the program's own phase
// spans (from reg) as one Chrome trace. Every span carries its query ID
// and its parent: a party span's parent is the span of the party that
// called it (client → mediator → source), any other span's parent is its
// party span.
func (t *tracer) writeChrome(w io.Writer, reg *telemetry.Registry, meta map[string]string) error {
	t.mu.Lock()
	spans := append([]*spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	type key struct{ kind, qid string }
	rootID := make(map[key]int64)
	qids := make(map[*spanRec]string, len(spans))
	for _, sp := range spans {
		qids[sp] = sp.sc.queryID()
		if sp.root {
			k := key{sp.sc.party, qids[sp]}
			if _, ok := rootID[k]; !ok {
				rootID[k] = sp.id
			}
		}
	}
	tids := map[string]int{}
	var events []chromeEvent
	tid := func(thread string) int {
		id, ok := tids[thread]
		if !ok {
			id = len(tids) + 1
			tids[thread] = id
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
				Args: map[string]string{"name": thread}})
		}
		return id
	}
	for _, sp := range spans {
		qid := qids[sp]
		var parent int64
		switch {
		case !sp.root:
			parent = rootID[key{sp.sc.party, qid}]
		case sp.sc.party == "mediator":
			parent = rootID[key{"client", qid}]
		case sp.sc.party != "client":
			parent = rootID[key{"mediator", qid}]
		}
		args := map[string]string{"query": qid, "id": strconv.FormatInt(sp.id, 10),
			"parent": strconv.FormatInt(parent, 10)}
		if sp.bytes > 0 {
			args["bytes"] = strconv.Itoa(sp.bytes)
		}
		events = append(events, chromeEvent{Name: sp.name, Cat: "bench", Ph: "X",
			Ts: float64(sp.start.Sub(t.epoch).Nanoseconds()) / 1e3, Dur: float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid(sp.sc.party), Args: args})
	}
	// The program's phase spans: roots carry the mux session ID of their
	// link, which maps to the query; children inherit their root's query.
	pspans := reg.Spans()
	byID := make(map[int64]telemetry.SpanRecord, len(pspans))
	for _, sp := range pspans {
		byID[sp.ID] = sp
	}
	var rootQuery func(sp telemetry.SpanRecord) string
	rootQuery = func(sp telemetry.SpanRecord) string {
		if p, ok := byID[sp.Parent]; ok && sp.Parent != 0 {
			return rootQuery(p)
		}
		for _, a := range sp.Attrs {
			if a.Key != "mux-session" {
				continue
			}
			sid, err := strconv.ParseUint(a.Value, 10, 64)
			if err != nil {
				return ""
			}
			probe := &scope{tr: t, party: sp.Party, sid: sid, source: strings.TrimPrefix(sp.Party, "source:")}
			if sp.Party == "client" || sp.Party == "mediator" {
				probe.party, probe.source = "mediator", ""
			}
			return probe.queryID()
		}
		return ""
	}
	offset := float64(t.regEpoch.Sub(t.epoch).Nanoseconds()) / 1e3
	for _, sp := range pspans {
		args := map[string]string{"query": rootQuery(sp), "id": "p" + strconv.FormatInt(sp.ID, 10)}
		if sp.Parent != 0 {
			args["parent"] = "p" + strconv.FormatInt(sp.Parent, 10)
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{Name: sp.Name, Cat: "program", Ph: "X",
			Ts: offset + float64(sp.StartNs)/1e3, Dur: float64(sp.DurNs) / 1e3,
			Pid: 1, Tid: tid("program " + sp.Party), Args: args})
	}
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{events, "ms", meta}
	return json.NewEncoder(w).Encode(doc)
}
