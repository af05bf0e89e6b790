//! CPU time of this process, as the kernel accounts it.
//!
//! On a shared virtual machine the hypervisor runs other tenants on this
//! machine's CPUs for stretches of seconds (steal time). Wall time then
//! grows by up to 2× while the CPU time the simulation consumes does
//! not, so the host-time metrics of the benchmark are CPU time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Reads a CPU-time clock, in ns.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux does not do for
/// these clocks.
#[allow(unsafe_code)]
fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds
    // for), and clock_gettime writes nothing but it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout");

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let a = super::process_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(super::process_ns() > a, "{x}");
        assert!(super::thread_ns() > 0);
    }
}
