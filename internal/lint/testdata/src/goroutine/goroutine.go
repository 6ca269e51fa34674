// Package goroutine is the fixture for the goroutine rule: every go
// statement in a simulator-core package is flagged, wherever it sits.
package goroutine

// pool looks like a worker pool; no receiver or constructor is exempt.
type pool struct {
	work chan func()
}

func newPool(n int) *pool {
	g := &pool{work: make(chan func())}
	for i := 0; i < n; i++ {
		go func() { // want "go statement in a simulator-core package"
			for f := range g.work {
				f()
			}
		}()
	}
	return g
}

func (g *pool) run(f func()) {
	go f() // want "go statement in a simulator-core package"
}

// rogueInLit is a go statement inside a closure — still flagged.
func rogueInLit(fs []func()) func() {
	return func() {
		for _, f := range fs {
			go f() // want "go statement in a simulator-core package"
		}
	}
}

// waivedSpawn documents why ordering cannot leak.
func waivedSpawn(f func(), done chan struct{}) {
	//lint:ordered awaited before any event is emitted; result order cannot leak
	go func() { f(); close(done) }()
	<-done
}
