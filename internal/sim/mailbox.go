package sim

// Mailbox is a CSIM-style message queue: unbounded FIFO buffering with
// blocking receive. The estimator's point-to-point communication (mpi_send
// / mpi_recv) is built on mailboxes, one per receiving process.
type Mailbox struct {
	name     string
	messages fifo[interface{}]
	waiting  fifo[*Process]
}

// NewMailbox creates an empty mailbox.
func (e *Engine) NewMailbox(name string) *Mailbox {
	m := &Mailbox{name: name}
	e.mailboxes = append(e.mailboxes, m)
	return m
}

// Name returns the mailbox name.
func (m *Mailbox) Name() string { return m.name }

// Send deposits a message. If receivers are waiting, the longest-waiting
// one is handed the message and scheduled to resume at the current time.
// Send never blocks; it is safe to call from At/After callbacks as well
// as from processes.
func (m *Mailbox) Send(msg interface{}) {
	if m.waiting.len() > 0 {
		p := m.waiting.pop()
		p.msg = msg
		p.unblock()
		return
	}
	m.messages.push(msg)
}

// Receive returns the next message, blocking the process until one
// arrives.
func (m *Mailbox) Receive(p *Process) interface{} {
	msg, wait := m.BeginReceive(p)
	if wait {
		p.pause()
		msg = p.TakeMessage()
	}
	return msg
}

// BeginReceive is Receive's non-blocking half: it returns the next
// message, or queues the process and reports that it must wait; the
// message it is handed is then read with TakeMessage.
func (m *Mailbox) BeginReceive(p *Process) (msg interface{}, wait bool) {
	if msg, ok := m.TryReceive(); ok {
		return msg, false
	}
	m.waiting.push(p)
	p.block()
	return nil, true
}

// TryReceive returns the next message without blocking; ok is false when
// the mailbox is empty.
func (m *Mailbox) TryReceive() (msg interface{}, ok bool) {
	if m.messages.len() == 0 {
		return nil, false
	}
	return m.messages.pop(), true
}

// Pending returns the number of buffered messages.
func (m *Mailbox) Pending() int { return m.messages.len() }

// fifo is a FIFO queue that keeps its array: pop moves the head on, and
// push moves the live items to the front once the array is full and at
// least half popped. A steady stream allocates nothing, and a backlog
// costs amortized O(1) per item.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	if n := len(q.items); n == cap(q.items) && q.head > 0 && q.head >= n/2 {
		clear(q.items[copy(q.items, q.items[q.head:]):])
		q.items, q.head = q.items[:n-q.head], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() (v T) {
	v, q.items[q.head] = q.items[q.head], v
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
