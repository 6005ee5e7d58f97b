//! Moving the measuring thread between the CPUs it may use.
//!
//! On the shared hosts this runs on, a vCPU falls into a slower state for
//! seconds to minutes at a time, and the two vCPUs of the recording host do
//! so largely independently of each other (README, "Spread on the recording
//! host"). A single-threaded workload therefore makes its trials on each
//! allowed CPU in turn, so that the run's best trial is the best of either.

/// `cpu_set_t`: one bit per CPU, 1024 CPUs.
type Mask = [u64; 16];

// sched_{get,set}affinity(2) shims — std exposes neither; declare the symbols
// directly, as the program's reactor does for poll(2).
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a live buffer of the size passed, and the call only
    // reads it. Pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

/// While it lives, [`Rotation::next`] moves the calling thread to the next
/// CPU of the set it was allowed when the rotation began; dropping it gives
/// the thread that set back.
pub struct Rotation {
    home: Mask,
    cpus: Vec<usize>,
    turn: usize,
}

impl Rotation {
    /// `None` when the allowed set cannot be read or holds a single CPU:
    /// there is nothing to rotate over, and the thread is left alone.
    pub fn begin() -> Option<Rotation> {
        let mut home: Mask = [0; 16];
        // SAFETY: `home` is a live, writable buffer of the size passed; the
        // call writes at most that many bytes. Pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), home.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..home.len() * 64)
            .filter(|c| home[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (rc >= 0 && cpus.len() > 1).then_some(Rotation {
            home,
            cpus,
            turn: 0,
        })
    }

    /// Pins the calling thread to the next CPU of the set.
    pub fn next(&mut self) {
        let cpu = self.cpus[self.turn % self.cpus.len()];
        self.turn += 1;
        let mut one: Mask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set(&self.home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn rotation_visits_one_cpu_at_a_time_and_gives_the_set_back() {
        // A thread of its own: the mask belongs to the thread, and the test
        // harness runs other tests beside this one.
        std::thread::spawn(|| {
            let before = allowed();
            let Some(mut rotation) = Rotation::begin() else {
                assert_eq!(before, 1, "more than one CPU and no rotation");
                return;
            };
            for _ in 0..before + 1 {
                rotation.next();
                assert_eq!(allowed(), 1);
            }
            drop(rotation);
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }
}
