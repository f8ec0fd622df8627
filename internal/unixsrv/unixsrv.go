// Package unixsrv implements the paper's UNIX operating system server
// (§1.2): "The bulk of the server is written in C, and executes within its
// own address space (as do applications). The server consists of a large
// body of code that implements the DEC OSF/1 system call interface, and a
// small number of SPIN extensions that provide the thread, virtual memory,
// and device interfaces required by the server."
//
// Here the server composes exactly those SPIN pieces: UNIX address spaces
// (with copy-on-write fork) from the vm extension, kernel threads from the
// strand package, and file/console devices. Processes are simulated user
// programs (Go closures) whose every system call crosses the user/kernel
// boundary at the calibrated cost.
package unixsrv

import (
	"errors"
	"fmt"

	"spin/internal/domain"
	"spin/internal/fs"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/strand"
	"spin/internal/vm"
)

// Errors returned by the syscall layer (errno analogues).
var (
	ErrBadFD    = errors.New("unixsrv: bad file descriptor (EBADF)")
	ErrNoEnt    = errors.New("unixsrv: no such file (ENOENT)")
	ErrChild    = errors.New("unixsrv: no such child (ECHILD)")
	ErrDeadProc = errors.New("unixsrv: process has exited")
	ErrNotOpen  = errors.New("unixsrv: file not open for that access")
)

// Server is the UNIX server: process table plus the SPIN extensions it is
// built from.
type Server struct {
	vmSys   *vm.System
	fs      *fs.FileSystem
	sched   *strand.Scheduler
	threads *strand.ThreadPkg
	console *sal.Console
	clock   *sim.Clock
	profile *sim.Profile

	procs   map[int]*Process
	nextPID int
}

// New builds a UNIX server over the given SPIN services.
func New(vmSys *vm.System, filesys *fs.FileSystem, sched *strand.Scheduler,
	threads *strand.ThreadPkg, console *sal.Console) *Server {
	return &Server{
		vmSys:   vmSys,
		fs:      filesys,
		sched:   sched,
		threads: threads,
		console: console,
		clock:   vmSys.Clock,
		profile: vmSys.Profile,
		procs:   make(map[int]*Process),
		nextPID: 1,
	}
}

// openFile is one open file description.
type openFile struct {
	name    string
	offset  int
	console bool
	write   bool
	read    bool
	// pipe, when non-nil, marks a pipe end (see pipe.go).
	pipe *pipe
}

// Process is one UNIX process: an address space, a descriptor table, and a
// kernel thread executing on its behalf while it is in the kernel.
type Process struct {
	PID int
	srv *Server

	// Space is the process address space (COW-copied by Fork).
	Space *vm.AddressSpace
	// Brk is the current heap region, grown by the Brk call.
	heap *vm.VirtAddr

	fds    map[int]*openFile
	nextFD int

	parent   *Process
	children map[int]*Process
	exited   bool
	// reaped children pending Wait.
	zombies map[int]int
	waitSem *strand.Semaphore

	thread *strand.Thread
}

// Spawn starts the initial process (init) running body on a kernel thread.
// Further processes come from Fork.
func (s *Server) Spawn(name string, body func(*Process)) *Process {
	p := s.newProcess(nil)
	p.thread = s.threads.Fork(fmt.Sprintf("proc-%d-%s", p.PID, name), func() {
		body(p)
		if !p.exited {
			p.Exit(0)
		}
	})
	return p
}

func (s *Server) newProcess(parent *Process) *Process {
	pid := s.nextPID
	s.nextPID++
	p := &Process{
		PID:      pid,
		srv:      s,
		Space:    vm.NewAddressSpace(s.vmSys, domain.Identity{Name: fmt.Sprintf("proc-%d", pid)}),
		fds:      make(map[int]*openFile),
		nextFD:   3, // 0,1,2 are the console
		parent:   parent,
		children: make(map[int]*Process),
		zombies:  make(map[int]int),
		waitSem:  s.threads.NewSemaphore(0),
	}
	// stdin/stdout/stderr on the console.
	p.fds[0] = &openFile{name: "<console>", console: true, read: true}
	p.fds[1] = &openFile{name: "<console>", console: true, write: true}
	p.fds[2] = &openFile{name: "<console>", console: true, write: true}
	s.procs[pid] = p
	if parent != nil {
		parent.children[pid] = p
	}
	return p
}

// Run drives the scheduler until all processes finish.
func (s *Server) Run() { s.sched.Run() }

// Procs reports live (unreaped) process count.
func (s *Server) Procs() int { return len(s.procs) }

// enterKernel charges one user->kernel->user round trip: every system call
// below pays it exactly once.
func (p *Process) enterKernel() {
	p.srv.clock.Advance(p.srv.profile.NullSyscall())
}

// Getpid returns the process id.
func (p *Process) Getpid() int {
	p.enterKernel()
	return p.PID
}

// Fork creates a child whose address space is a copy-on-write copy of the
// parent's, running body on its own kernel thread. It returns the child's
// pid in the parent, like fork(2)'s parent return.
func (p *Process) Fork(body func(*Process)) (int, error) {
	p.enterKernel()
	if p.exited {
		return 0, ErrDeadProc
	}
	child := p.srv.newProcess(p)
	childSpace, err := p.Space.Copy(domain.Identity{Name: fmt.Sprintf("proc-%d", child.PID)})
	if err != nil {
		delete(p.srv.procs, child.PID)
		delete(p.children, child.PID)
		return 0, err
	}
	// The fresh space created in newProcess is replaced by the COW copy.
	child.Space.Destroy()
	child.Space = childSpace
	// Descriptors are inherited (shared offsets are simplified to
	// copies; pipe ends share state and bump reference counts).
	for fd, f := range p.fds {
		cp := *f
		child.fds[fd] = &cp
		if f.pipe != nil {
			if f.read {
				f.pipe.readers++
			}
			if f.write {
				f.pipe.writers++
			}
		}
	}
	child.nextFD = p.nextFD
	child.thread = p.srv.threads.Fork(fmt.Sprintf("proc-%d", child.PID), func() {
		body(child)
		if !child.exited {
			child.Exit(0)
		}
	})
	return child.PID, nil
}

// Exit terminates the process, reparenting children to init-like limbo and
// waking any waiting parent.
func (p *Process) Exit(code int) {
	p.enterKernel()
	if p.exited {
		return
	}
	p.exited = true
	p.Space.Destroy()
	if p.parent != nil && !p.parent.exited {
		p.parent.zombies[p.PID] = code
		delete(p.parent.children, p.PID)
		p.parent.waitSem.V()
	} else {
		delete(p.srv.procs, p.PID)
	}
}

// Wait blocks until some child exits and returns its (pid, exit code).
func (p *Process) Wait() (pid, code int, err error) {
	p.enterKernel()
	if len(p.children) == 0 && len(p.zombies) == 0 {
		return 0, 0, ErrChild
	}
	for len(p.zombies) == 0 {
		p.waitSem.P()
	}
	for zpid, zcode := range p.zombies {
		delete(p.zombies, zpid)
		delete(p.srv.procs, zpid)
		return zpid, zcode, nil
	}
	return 0, 0, ErrChild
}

// Brk grows the process heap by n bytes of zeroed memory and returns the
// base address of the new region.
func (p *Process) Brk(n int64) (uint64, error) {
	p.enterKernel()
	if p.exited {
		return 0, ErrDeadProc
	}
	region, err := p.Space.AllocateMemory(n, sal.ProtRead|sal.ProtWrite)
	if err != nil {
		return 0, err
	}
	p.heap = region
	return region.Start(), nil
}

// Touch performs a user memory access within the process space (used by
// tests and workloads to exercise COW behaviour through the server).
func (p *Process) Touch(addr uint64, write bool) error {
	mode := sal.ProtRead
	if write {
		mode |= sal.ProtWrite
	}
	if f, _ := p.srv.vmSys.Access(p.Space.Ctx, addr, mode); f != nil {
		return fmt.Errorf("unixsrv: segmentation fault at %#x (%v)", addr, f.Kind)
	}
	return nil
}

// Open opens a file for reading (and writing if write is set), creating it
// when created is requested.
func (p *Process) Open(path string, write, create bool) (int, error) {
	p.enterKernel()
	if _, err := p.srv.fs.Size(path); err != nil {
		if !create {
			return 0, fmt.Errorf("%w: %s", ErrNoEnt, path)
		}
		if err := p.srv.fs.Create(path, nil); err != nil {
			return 0, err
		}
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &openFile{name: path, read: true, write: write}
	return fd, nil
}

// Close releases a descriptor.
func (p *Process) Close(fd int) error {
	p.enterKernel()
	f, ok := p.fds[fd]
	if !ok {
		return ErrBadFD
	}
	if f.pipe != nil {
		p.closePipeEnd(f)
	}
	delete(p.fds, fd)
	return nil
}

// Read reads up to n bytes from fd at its current offset.
func (p *Process) Read(fd, n int) ([]byte, error) {
	p.enterKernel()
	f, ok := p.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	if !f.read {
		return nil, ErrNotOpen
	}
	if f.pipe != nil {
		return p.pipeRead(f, n)
	}
	if f.console {
		var out []byte
		for len(out) < n {
			ch, ok := p.srv.console.GetChar()
			if !ok {
				break
			}
			out = append(out, ch)
		}
		return out, nil
	}
	data, err := p.srv.fs.Read(f.name)
	if err != nil {
		return nil, err
	}
	if f.offset >= len(data) {
		return nil, nil // EOF
	}
	end := f.offset + n
	if end > len(data) {
		end = len(data)
	}
	out := append([]byte(nil), data[f.offset:end]...)
	f.offset = end
	// copyout to user space.
	p.srv.clock.Advance(sim.Duration((len(out)+7)/8) * p.srv.profile.CopyPerWord)
	return out, nil
}

// Write appends data through fd (console fds print; file fds rewrite the
// file with the appended content — the simple FS has no partial update).
func (p *Process) Write(fd int, data []byte) (int, error) {
	p.enterKernel()
	f, ok := p.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	if f.console {
		p.srv.console.Write(string(data))
		return len(data), nil
	}
	if !f.write {
		return 0, ErrNotOpen
	}
	if f.pipe != nil {
		return p.pipeWrite(f, data)
	}
	old, err := p.srv.fs.Read(f.name)
	if err != nil {
		return 0, err
	}
	_ = p.srv.fs.Remove(f.name)
	if err := p.srv.fs.Create(f.name, append(old, data...)); err != nil {
		return 0, err
	}
	p.srv.clock.Advance(sim.Duration((len(data)+7)/8) * p.srv.profile.CopyPerWord)
	return len(data), nil
}

// Exec replaces the process image, like execve(2): the old address space is
// torn down, a fresh one (text + initial heap) is built, descriptors are
// retained, and the new program runs in its place. It does not return to
// the old program: the process exits with the new program's status when the
// new body finishes.
func (p *Process) Exec(name string, textBytes, heapBytes int64, body func(*Process)) error {
	p.enterKernel()
	if p.exited {
		return ErrDeadProc
	}
	old := p.Space
	p.Space = vm.NewAddressSpace(p.srv.vmSys, domain.Identity{Name: fmt.Sprintf("proc-%d-%s", p.PID, name)})
	p.heap = nil
	old.Destroy()
	if textBytes > 0 {
		if _, err := p.Space.AllocateMemory(textBytes, sal.ProtRead|sal.ProtExec); err != nil {
			return err
		}
	}
	if heapBytes > 0 {
		region, err := p.Space.AllocateMemory(heapBytes, sal.ProtRead|sal.ProtWrite)
		if err != nil {
			return err
		}
		p.heap = region
	}
	body(p)
	if !p.exited {
		p.Exit(0)
	}
	return nil
}

// Kill terminates another process (like kill(2) with SIGKILL): the target
// is marked exited with the given code and its resources are torn down. The
// caller must be an ancestor or the process itself — the capability model
// here is the process tree.
func (p *Process) Kill(pid, code int) error {
	p.enterKernel()
	target, ok := p.srv.procs[pid]
	if !ok {
		return fmt.Errorf("unixsrv: no process %d (ESRCH)", pid)
	}
	if target != p && !p.isAncestorOf(target) {
		return fmt.Errorf("unixsrv: process %d not owned (EPERM)", pid)
	}
	if target.exited {
		return nil
	}
	target.exited = true
	target.Space.Destroy()
	if target.parent != nil && !target.parent.exited {
		target.parent.zombies[target.PID] = code
		delete(target.parent.children, target.PID)
		target.parent.waitSem.V()
	} else {
		delete(p.srv.procs, target.PID)
	}
	return nil
}

// isAncestorOf walks the process tree upward from q.
func (p *Process) isAncestorOf(q *Process) bool {
	for cur := q.parent; cur != nil; cur = cur.parent {
		if cur == p {
			return true
		}
	}
	return false
}
