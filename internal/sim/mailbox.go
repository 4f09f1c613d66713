package sim

// Mailbox is a CSIM-style message queue: unbounded FIFO buffering with
// blocking receive. The estimator's point-to-point communication (mpi_send
// / mpi_recv) is built on mailboxes, one per receiving process.
type Mailbox struct {
	name     string
	messages []interface{}
	waiting  []*Process
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
	if len(m.waiting) > 0 {
		p := m.waiting[0]
		m.waiting = m.waiting[1:]
		p.msg = msg
		p.unblock()
		return
	}
	m.messages = append(m.messages, msg)
}

// Receive returns the next message, blocking the process until one
// arrives.
func (m *Mailbox) Receive(p *Process) interface{} {
	if msg, ok := m.TryReceive(); ok {
		return msg
	}
	m.waiting = append(m.waiting, p)
	p.block()
	msg := p.msg
	p.msg = nil
	return msg
}

// TryReceive returns the next message without blocking; ok is false when
// the mailbox is empty.
func (m *Mailbox) TryReceive() (msg interface{}, ok bool) {
	if len(m.messages) == 0 {
		return nil, false
	}
	msg = m.messages[0]
	m.messages = m.messages[1:]
	return msg, true
}

// Pending returns the number of buffered messages.
func (m *Mailbox) Pending() int { return len(m.messages) }
