package strand_test

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sim"
	"spin/internal/strand"
)

// Example runs the classic producer/consumer on the trusted in-kernel
// thread package: Fork/Join with a counting semaphore.
func Example() {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	sched, _ := strand.NewMultiScheduler(&sim.SPINProfile, disp, eng)
	pkg := strand.NewThreadPkg(sched)

	items := pkg.NewSemaphore(0)
	var queue []int
	producer := pkg.Fork("producer", func() {
		for i := 1; i <= 3; i++ {
			queue = append(queue, i*10)
			items.V()
		}
	})
	consumer := pkg.Fork("consumer", func() {
		for i := 0; i < 3; i++ {
			items.P()
			v := queue[0]
			queue = queue[1:]
			fmt.Println("consumed", v)
		}
	})
	_ = producer
	_ = consumer
	sched.Run()
	// Output:
	// consumed 10
	// consumed 20
	// consumed 30
}

// ExampleSubScheduler installs an application-specific scheduler with a
// custom (LIFO) policy on top of the global scheduler.
func ExampleSubScheduler() {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	sched, _ := strand.NewMultiScheduler(&sim.SPINProfile, disp, eng)
	sub, _ := strand.NewSubScheduler(sched, domain.Identity{Name: "app"})
	sub.Policy = func(q []*strand.SubStrand) int { return len(q) - 1 } // LIFO
	for _, name := range []string{"first", "second", "third"} {
		name := name
		sub.Start(sub.NewSubStrand(name, func(*strand.SubStrand) {
			fmt.Println("ran", name)
		}))
	}
	sched.Run()
	// Output:
	// ran third
	// ran second
	// ran first
}
