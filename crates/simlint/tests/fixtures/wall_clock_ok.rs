// Fixture: must NOT trigger `wall-clock` — virtual time via simnet's own
// clock is the supported spelling, and simnet's `time` module shares a name
// with `std::time` without being it.
use simnet::time::{SimDuration, SimTime};
use simnet::Sim;

async fn wait_one_us(sim: &Sim) -> SimTime {
    sim.sleep(SimDuration::from_micros(1)).await;
    sim.now()
}

fn horizon(now: SimTime, step: SimDuration) -> SimTime {
    now + step
}
