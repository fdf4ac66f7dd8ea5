package netcoord

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/sched"
)

// deadlineFailConn is a net.Conn whose deadline setters fail — the
// shape of a connection whose fd already died under it. Writes still
// "succeed" so the test proves eviction comes from the deadline error
// itself, not from a failed encode.
type deadlineFailConn struct {
	err error
}

func (c *deadlineFailConn) Read(b []byte) (int, error)  { return 0, io.EOF }
func (c *deadlineFailConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *deadlineFailConn) Close() error                { return nil }
func (c *deadlineFailConn) LocalAddr() net.Addr         { return &net.TCPAddr{} }
func (c *deadlineFailConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }
func (c *deadlineFailConn) SetDeadline(time.Time) error { return c.err }

func (c *deadlineFailConn) SetReadDeadline(time.Time) error  { return c.err }
func (c *deadlineFailConn) SetWriteDeadline(time.Time) error { return c.err }

// newFakeProc wires a proc over conn into a minimal coordinator
// registry, exactly as register would.
func newFakeProc(t *testing.T, conn net.Conn) (*Coordinator, *proc) {
	t.Helper()
	c := &Coordinator{
		opts:   CoordinatorOptions{Heartbeat: 50 * time.Millisecond, Logf: t.Logf},
		procs:  map[int64]*proc{},
		joinCh: make(chan struct{}),
	}
	p := &proc{
		c:        c,
		id:       1,
		addr:     "fake",
		conn:     conn,
		enc:      gob.NewEncoder(conn),
		slots:    1,
		done:     make(chan struct{}),
		lastSeen: time.Now(),
		inflight: map[int]inflightAttempt{},
	}
	c.procs[p.id] = p
	return c, p
}

// A connection that cannot accept a write deadline must fail the send:
// encoding without the deadline would block unboundedly on a dying
// peer, defeating the heartbeat eviction path.
func TestSendFailsWhenDeadlineCannotBeSet(t *testing.T) {
	boom := errors.New("setsockopt: bad file descriptor")
	_, p := newFakeProc(t, &deadlineFailConn{err: boom})
	err := p.send(&frame{Ping: &Ping{Seq: 1}})
	if !errors.Is(err, boom) {
		t.Fatalf("send returned %v, want the deadline error", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error %q does not name the deadline failure", err)
	}
}

// A deadline failure during Execute is a declaration of death: the
// in-flight attempt comes back WorkerDown (feeding the usual eviction
// path) and the process leaves the fleet, instead of leaving a
// blocking read with no timeout behind.
func TestDeadlineFailureEvictsWorker(t *testing.T) {
	boom := errors.New("setsockopt: bad file descriptor")
	c, p := newFakeProc(t, &deadlineFailConn{err: boom})
	x := &Executor{
		procs:     []*proc{p},
		slotProc:  []*proc{p},
		slotLocal: []int{0},
		results:   make(chan sched.ExecResult, 2),
	}
	x.Execute(0, sched.ExecRequest{})
	select {
	case r := <-x.Results():
		if !r.WorkerDown || r.Err == nil {
			t.Fatalf("result = %+v, want WorkerDown with error", r)
		}
		if !strings.Contains(r.Err.Error(), "deadline") {
			t.Errorf("eviction error %q does not carry the deadline cause", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline failure produced no WorkerDown result")
	}
	if procs, _ := c.Workers(); procs != 0 {
		t.Errorf("fleet still has %d processes, want 0 after the eviction", procs)
	}
	p.mu.Lock()
	dead := p.dead
	p.mu.Unlock()
	if !dead {
		t.Error("proc not marked dead after deadline failure")
	}
}

// The heartbeat loop, too, must evict on a deadline failure rather
// than pinging into the void forever.
func TestHeartbeatEvictsOnDeadlineFailure(t *testing.T) {
	boom := errors.New("setsockopt: bad file descriptor")
	c, p := newFakeProc(t, &deadlineFailConn{err: boom})
	go c.heartbeat(p)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if procs, _ := c.Workers(); procs == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never evicted the deadline-failing worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
