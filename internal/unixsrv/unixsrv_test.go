package unixsrv

import (
	"errors"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/strand"
	"spin/internal/vm"
)

func newServer(t *testing.T) (*Server, *sal.Console) {
	t.Helper()
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	disp := dispatch.New(eng, prof)
	mmu := sal.NewMMU(eng.Clock, prof)
	phys := sal.NewPhysMem(64 << 20)
	vmSys, err := vm.New(eng, prof, disp, mmu, phys)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := strand.NewMultiScheduler(prof, disp, eng)
	if err != nil {
		t.Fatal(err)
	}
	threads := strand.NewThreadPkg(sched)
	console := &sal.Console{}
	filesys := fs.New(sal.NewDisk(eng.Clock), eng.Clock, 64)
	return New(vmSys, filesys, sched, threads, console), console
}

func TestHelloWorld(t *testing.T) {
	srv, console := newServer(t)
	srv.Spawn("hello", func(p *Process) {
		_, _ = p.Write(1, []byte("hello, world\n"))
	})
	srv.Run()
	if console.Output() != "hello, world\n" {
		t.Errorf("console = %q", console.Output())
	}
}

func TestGetpidDistinct(t *testing.T) {
	srv, _ := newServer(t)
	var pids []int
	srv.Spawn("a", func(p *Process) { pids = append(pids, p.Getpid()) })
	srv.Spawn("b", func(p *Process) { pids = append(pids, p.Getpid()) })
	srv.Run()
	if len(pids) != 2 || pids[0] == pids[1] {
		t.Errorf("pids = %v", pids)
	}
}

func TestForkWaitExit(t *testing.T) {
	srv, console := newServer(t)
	srv.Spawn("init", func(p *Process) {
		pid, err := p.Fork(func(c *Process) {
			_, _ = c.Write(1, []byte("child\n"))
			c.Exit(7)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		gotPID, code, err := p.Wait()
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		if gotPID != pid || code != 7 {
			t.Errorf("wait = (%d,%d), want (%d,7)", gotPID, code, pid)
		}
		_, _ = p.Write(1, []byte("parent\n"))
	})
	srv.Run()
	out := console.Output()
	if !strings.Contains(out, "child\n") || !strings.HasSuffix(out, "parent\n") {
		t.Errorf("output = %q", out)
	}
	if srv.Procs() != 0 {
		t.Errorf("processes leaked: %d", srv.Procs())
	}
}

func TestWaitNoChildren(t *testing.T) {
	srv, _ := newServer(t)
	var err error
	srv.Spawn("lonely", func(p *Process) {
		_, _, err = p.Wait()
	})
	srv.Run()
	if !errors.Is(err, ErrChild) {
		t.Errorf("err = %v", err)
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	srv, _ := newServer(t)
	var parentFrame, childFrame uint64
	var touchErr error
	srv.Spawn("init", func(p *Process) {
		base, err := p.Brk(2 * sal.PageSize)
		if err != nil {
			t.Errorf("brk: %v", err)
			return
		}
		_ = p.Touch(base, true) // dirty it pre-fork
		_, err = p.Fork(func(c *Process) {
			// Child writes: gets a private page.
			touchErr = c.Touch(base, true)
			childFrame, _ = c.srv.vmSys.TransSvc.FrameOf(c.Space.Ctx, c.heapOf(), 0)
			c.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		_, _, _ = p.Wait()
		parentFrame, _ = p.srv.vmSys.TransSvc.FrameOf(p.Space.Ctx, p.heap, 0)
	})
	srv.Run()
	if touchErr != nil {
		t.Fatalf("child touch: %v", touchErr)
	}
	if parentFrame == 0 {
		t.Fatal("parent frame not found")
	}
	// After the child exits its space is destroyed; the captured frames
	// must have differed (the child wrote into a private copy).
	if childFrame == parentFrame {
		t.Error("fork did not copy-on-write: frames identical after child write")
	}
}

// heapOf exposes the child's heap region for the COW assertion; the child's
// heap comes from the parent's regions via Copy, so the parent's heap
// pointer addresses the same virtual range.
func (p *Process) heapOf() *vm.VirtAddr {
	if p.heap != nil {
		return p.heap
	}
	return p.parent.heap
}

func TestFileIO(t *testing.T) {
	srv, _ := newServer(t)
	var got []byte
	srv.Spawn("io", func(p *Process) {
		fd, err := p.Open("/etc/motd", true, true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := p.Write(fd, []byte("welcome to SPIN")); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		fd2, err := p.Open("/etc/motd", false, false)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		got, err = p.Read(fd2, 100)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		// Second read: EOF.
		rest, _ := p.Read(fd2, 100)
		if rest != nil {
			t.Errorf("read past EOF = %q", rest)
		}
	})
	srv.Run()
	if string(got) != "welcome to SPIN" {
		t.Errorf("read back %q", got)
	}
}

func TestFileErrors(t *testing.T) {
	srv, _ := newServer(t)
	srv.Spawn("err", func(p *Process) {
		if _, err := p.Open("/nope", false, false); !errors.Is(err, ErrNoEnt) {
			t.Errorf("open missing: %v", err)
		}
		if _, err := p.Read(99, 10); !errors.Is(err, ErrBadFD) {
			t.Errorf("read bad fd: %v", err)
		}
		if err := p.Close(99); !errors.Is(err, ErrBadFD) {
			t.Errorf("close bad fd: %v", err)
		}
		fd, _ := p.Open("/x", false, true)
		if _, err := p.Write(fd, []byte("no")); !errors.Is(err, ErrNotOpen) {
			t.Errorf("write to read-only fd: %v", err)
		}
	})
	srv.Run()
}

func TestConsoleStdio(t *testing.T) {
	srv, console := newServer(t)
	console.FeedInput("yes\n")
	var line []byte
	srv.Spawn("sh", func(p *Process) {
		line, _ = p.Read(0, 4)
		_, _ = p.Write(2, []byte("prompt> "))
	})
	srv.Run()
	if string(line) != "yes\n" {
		t.Errorf("stdin read %q", line)
	}
	if console.Output() != "prompt> " {
		t.Errorf("stderr = %q", console.Output())
	}
}

func TestSyscallsCostVirtualTime(t *testing.T) {
	srv, _ := newServer(t)
	clock := srv.clock
	var spent sim.Duration
	srv.Spawn("busy", func(p *Process) {
		start := clock.Now()
		for i := 0; i < 100; i++ {
			p.Getpid()
		}
		spent = clock.Now().Sub(start)
	})
	srv.Run()
	perCall := spent / 100
	// A null-ish syscall costs ≈4µs on SPIN.
	if perCall < 3*sim.Microsecond || perCall > 6*sim.Microsecond {
		t.Errorf("getpid cost = %v, want ≈4µs", perCall)
	}
}

func TestDeepForkTree(t *testing.T) {
	srv, _ := newServer(t)
	const depth = 8
	leafs := 0
	var spawn func(p *Process, d int)
	spawn = func(p *Process, d int) {
		if d == 0 {
			leafs++
			return
		}
		for i := 0; i < 2; i++ {
			_, err := p.Fork(func(c *Process) { spawn(c, d-1) })
			if err != nil {
				t.Errorf("fork at depth %d: %v", d, err)
				return
			}
		}
		for i := 0; i < 2; i++ {
			if _, _, err := p.Wait(); err != nil {
				t.Errorf("wait at depth %d: %v", d, err)
			}
		}
	}
	srv.Spawn("root", func(p *Process) { spawn(p, 3) })
	srv.Run()
	if leafs != 8 {
		t.Errorf("leaf processes = %d, want 8", leafs)
	}
	if srv.Procs() != 0 {
		t.Errorf("processes leaked: %d", srv.Procs())
	}
}

func TestPipeParentChild(t *testing.T) {
	srv, _ := newServer(t)
	var got []byte
	srv.Spawn("init", func(p *Process) {
		r, w, err := p.Pipe()
		if err != nil {
			t.Errorf("pipe: %v", err)
			return
		}
		_, err = p.Fork(func(c *Process) {
			_ = c.Close(r) // child writes only
			_, _ = c.Write(w, []byte("through the pipe"))
			_ = c.Close(w)
			c.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		_ = p.Close(w) // parent reads only
		for {
			chunk, err := p.Read(r, 8)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if chunk == nil {
				break // EOF: all writers closed
			}
			got = append(got, chunk...)
		}
		_ = p.Close(r)
		_, _, _ = p.Wait()
	})
	srv.Run()
	if string(got) != "through the pipe" {
		t.Errorf("got %q", got)
	}
}

func TestPipeBlocksUntilData(t *testing.T) {
	// The reader forks first and blocks; the writer produces later —
	// ordering must come out right.
	srv, _ := newServer(t)
	var order []string
	srv.Spawn("init", func(p *Process) {
		r, w, _ := p.Pipe()
		_, _ = p.Fork(func(c *Process) {
			data, _ := c.Read(r, 10)
			order = append(order, "read:"+string(data))
			c.Exit(0)
		})
		// Parent does other work first, then writes.
		order = append(order, "work")
		_, _ = p.Write(w, []byte("x"))
		_ = p.Close(w)
		_, _, _ = p.Wait()
	})
	srv.Run()
	if len(order) != 2 || order[0] != "work" || order[1] != "read:x" {
		t.Errorf("order = %v", order)
	}
}

func TestPipeEOFWithoutData(t *testing.T) {
	srv, _ := newServer(t)
	eof := false
	srv.Spawn("init", func(p *Process) {
		r, w, _ := p.Pipe()
		_ = p.Close(w)
		data, err := p.Read(r, 10)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		eof = data == nil
	})
	srv.Run()
	if !eof {
		t.Error("no EOF after writer closed")
	}
}

func TestPipeWriteAfterReaderGone(t *testing.T) {
	srv, _ := newServer(t)
	var err error
	srv.Spawn("init", func(p *Process) {
		r, w, _ := p.Pipe()
		_ = p.Close(r)
		_, err = p.Write(w, []byte("to nobody"))
	})
	srv.Run()
	if !errors.Is(err, ErrBadFD) {
		t.Errorf("write to readerless pipe: %v", err)
	}
}

func TestExecReplacesImage(t *testing.T) {
	srv, console := newServer(t)
	srv.Spawn("init", func(p *Process) {
		pid, _ := p.Fork(func(c *Process) {
			oldCtx := c.Space.Ctx
			// The child execs a new program; descriptors survive.
			fd, _ := c.Open("/exec.log", true, true)
			err := c.Exec("newprog", 2*sal.PageSize, 4*sal.PageSize, func(np *Process) {
				if np.Space.Ctx == oldCtx {
					t.Error("exec kept the old address space")
				}
				if _, err := np.Write(fd, []byte("ran after exec")); err != nil {
					t.Errorf("write after exec: %v", err)
				}
				_, _ = np.Write(1, []byte("exec ok\n"))
				np.Exit(3)
			})
			if err != nil {
				t.Errorf("exec: %v", err)
			}
		})
		wpid, code, err := p.Wait()
		if err != nil || wpid != pid || code != 3 {
			t.Errorf("wait = %d,%d,%v", wpid, code, err)
		}
		fd, err := p.Open("/exec.log", false, false)
		if err != nil {
			t.Errorf("open log: %v", err)
			return
		}
		data, _ := p.Read(fd, 100)
		if string(data) != "ran after exec" {
			t.Errorf("log = %q", data)
		}
	})
	srv.Run()
	if !strings.Contains(console.Output(), "exec ok") {
		t.Errorf("console = %q", console.Output())
	}
}

func TestExecOnExitedProcess(t *testing.T) {
	srv, _ := newServer(t)
	var execErr error
	srv.Spawn("init", func(p *Process) {
		p.Exit(0)
		execErr = p.Exec("x", 0, 0, func(*Process) {})
	})
	srv.Run()
	if !errors.Is(execErr, ErrDeadProc) {
		t.Errorf("exec after exit: %v", execErr)
	}
}

func TestKillChild(t *testing.T) {
	srv, _ := newServer(t)
	childRanToEnd := false
	srv.Spawn("init", func(p *Process) {
		pid, _ := p.Fork(func(c *Process) {
			// The child parks forever; the parent kills it.
			c.srv.sched.Current().BlockSelf()
			childRanToEnd = true
		})
		if err := p.Kill(pid, 9); err != nil {
			t.Errorf("kill: %v", err)
		}
		wpid, code, err := p.Wait()
		if err != nil || wpid != pid || code != 9 {
			t.Errorf("wait = %d,%d,%v", wpid, code, err)
		}
	})
	srv.Run()
	if childRanToEnd {
		t.Error("killed child kept running")
	}
}

func TestKillPermissions(t *testing.T) {
	srv, _ := newServer(t)
	var errForeign, errMissing error
	other := srv.Spawn("bystander", func(p *Process) {
		p.srv.sched.Current().BlockSelf()
	})
	srv.Spawn("attacker", func(p *Process) {
		errForeign = p.Kill(other.PID, 9)
		errMissing = p.Kill(9999, 9)
		// Unpark the bystander so the scheduler drains.
		p.srv.sched.Unblock(other.thread.Strand())
	})
	srv.Run()
	if errForeign == nil {
		t.Error("killed an unrelated process")
	}
	if errMissing == nil {
		t.Error("killed a nonexistent pid")
	}
}
