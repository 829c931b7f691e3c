//! Stackful fibers: a function that runs on a stack of its own and can
//! stop anywhere in its call tree ([`suspend`]) and be continued later
//! ([`Fiber::resume`]), all on the calling thread.
//!
//! The cluster crate's event backend hosts each rank of a simulated
//! cluster as one fiber, so handing the run from one rank to the next is
//! a user-space register swap instead of an OS thread hand-off (DESIGN.md
//! §14). Nothing else in the workspace uses them.
//!
//! * A fiber's stack is an anonymous `MAP_NORESERVE` mapping: pages are
//!   committed on first touch, so thousands of fibers cost address space,
//!   not resident memory. One `PROT_NONE` page below each stack turns an
//!   overflow into a SIGSEGV instead of a silent write into a neighbour.
//! * A switch saves the System V callee-saved registers (`rbx`, `rbp`,
//!   `r12`–`r15`), MXCSR and the x87 control word on the stack it leaves
//!   and restores them from the one it enters; everything else is
//!   caller-saved, so the compiler has spilled it around the call.
//! * The job runs under `catch_unwind` at the fiber's entry: a panic
//!   never unwinds across a switch. It ends the fiber and is handed back
//!   through [`Fiber::take_panic`].
//!
//! # Safety story
//!
//! This file and `simd.rs` are the workspace's only `unsafe` (both listed
//! in `crates/xtask/simd-allow.txt`; every site carries a `SAFETY:` line).
//! The surface is safe:
//!
//! * a [`Fiber`] is `!Send`, so it is resumed on the thread that made it,
//!   and it borrows for `'a` only what its job captured, which runs only
//!   inside [`Fiber::resume`] while the `Fiber<'a>` is alive;
//! * [`suspend`] checks a thread-local that a [`Fiber::resume`] on this
//!   thread is in progress and panics otherwise;
//! * **a stack that still holds live frames is never unmapped.** A
//!   suspended frame may own a `std::thread::scope` whose threads borrow
//!   it, so dropping a fiber that started and did not finish leaks its
//!   stack.
//!
//! Only x86_64 Linux is supported: the switch is x86_64 assembly and the
//! stacks come from raw Linux system calls (std has no `mmap`, and the
//! workspace has no `libc`).
#![allow(unsafe_code)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("easgd-tensor's fibers switch stacks with x86_64 Linux assembly only");

use std::any::Any;
use std::arch::{asm, naked_asm};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// The x86_64 Linux page size: the guard's size and the stack's rounding.
const PAGE: usize = 4096;

/// The state a fiber shares with the code that runs on its stack; boxed,
/// so its address survives the [`Fiber`] being moved.
struct Context<'a> {
    /// The fiber's stack pointer while it is suspended: a frame laid out
    /// by [`Fiber::new`], then whatever its last [`suspend`] saved.
    fiber_sp: *mut u8,
    /// The stack pointer the [`Fiber::resume`] in progress saved.
    resumer_sp: *mut u8,
    job: Option<Box<dyn FnOnce() + 'a>>,
    /// Inside a [`Fiber::resume`]: resuming it again would run one stack
    /// twice.
    running: bool,
    done: bool,
    panic: Option<Box<dyn Any + Send>>,
}

thread_local! {
    /// The fiber this thread is running, null on the thread's own stack.
    /// A [`Fiber::resume`] sets it and puts the previous one back after,
    /// so a fiber may run fibers of its own.
    static CURRENT: Cell<*mut Context<'static>> = const { Cell::new(ptr::null_mut()) };
}

/// A job on a stack of its own; see the module docs.
pub struct Fiber<'a> {
    ctx: Box<Context<'a>>,
    stack: Stack,
}

impl<'a> Fiber<'a> {
    /// Maps a stack of `stack_bytes` (rounded up to whole pages, at least
    /// one) plus a guard page, and lays out the frame the first
    /// [`resume`](Self::resume) starts `job` from. Nothing runs yet.
    ///
    /// # Panics
    /// Panics if the kernel refuses the mapping.
    pub fn new(stack_bytes: usize, job: Box<dyn FnOnce() + 'a>) -> Fiber<'a> {
        let stack = Stack::map(stack_bytes);
        // What `switch` pops on the first resume, lowest address first:
        // MXCSR and the x87 control word at their power-on defaults, six
        // zeroed callee-saved registers (rbp last, ending frame-pointer
        // walks), the address `switch` returns to, and a null return
        // address for `fiber_entry` itself, which never returns.
        let frame: [usize; 9] = [
            0x1F80 | (0x037F << 32),
            0,
            0,
            0,
            0,
            0,
            0,
            fiber_entry as extern "C" fn() -> ! as usize,
            0,
        ];
        // The stack top is page aligned, so `fiber_entry` starts with
        // rsp ≡ 8 (mod 16), as after a `call`.
        let sp = stack.top().wrapping_sub(size_of_val(&frame));
        // SAFETY: the 72 bytes below the top of a fresh read-write mapping
        // of at least one page belong to this stack alone, and `sp` is
        // 8-byte aligned.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<usize>(), frame.len()) };
        Fiber {
            ctx: Box::new(Context {
                fiber_sp: sp,
                resumer_sp: ptr::null_mut(),
                job: Some(job),
                running: false,
                done: false,
                panic: None,
            }),
            stack,
        }
    }

    /// Runs the fiber until its job calls [`suspend`] or ends.
    ///
    /// # Panics
    /// Panics if the job has ended, or if this fiber is already running
    /// further up this thread (it resumed, directly or through others,
    /// the code now resuming it).
    pub fn resume(&mut self) {
        assert!(!self.ctx.done, "resumed a finished fiber");
        assert!(!self.ctx.running, "resumed a fiber that is running");
        self.ctx.running = true;
        let ctx: *mut Context<'a> = &raw mut *self.ctx;
        let outer = CURRENT.with(|c| c.replace(ctx.cast()));
        // SAFETY: `fiber_sp` is the frame `new` laid out or the one the
        // fiber's last `suspend` saved, on a stack that is still mapped
        // (it is unmapped only in `drop`). The fiber is not running (the
        // assert above), so that frame is not in use, and this thread is
        // the only one that can reach it (`Fiber` is `!Send`). `switch`
        // comes back here once the fiber suspends or ends.
        unsafe { switch(&raw mut (*ctx).resumer_sp, (*ctx).fiber_sp) };
        CURRENT.with(|c| c.set(outer));
        self.ctx.running = false;
    }

    /// Whether the job has ended, by returning or by panicking.
    pub fn is_done(&self) -> bool {
        self.ctx.done
    }

    /// The payload the job panicked with, once (`None` if it has not
    /// ended, returned normally, or the payload was already taken).
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.ctx.panic.take()
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        // A job that started and has not ended has frames on the stack,
        // and one of them may own a thread scope whose threads borrow
        // them: the stack stays mapped for good.
        if self.ctx.job.is_none() && !self.ctx.done {
            std::mem::forget(std::mem::replace(&mut self.stack, Stack::EMPTY));
        }
    }
}

/// Stops the running fiber and returns to the [`Fiber::resume`] that ran
/// it; returns when the fiber is next resumed.
///
/// # Panics
/// Panics unless it is called inside a fiber's job.
pub fn suspend() {
    let ctx = CURRENT.with(Cell::get);
    assert!(
        !ctx.is_null(),
        "fiber::suspend called outside a running fiber"
    );
    // SAFETY: `CURRENT` is non-null only while the `resume` that set it
    // is in progress, so `ctx` is the running fiber's live context and
    // `resumer_sp` is the frame that resume's `switch` saved, on a stack
    // lower in this thread's chain that waits for exactly this switch.
    unsafe { switch(&raw mut (*ctx).fiber_sp, (*ctx).resumer_sp) };
}

/// The bottom frame of every fiber: runs the job, records how it ended
/// and switches back for the last time.
extern "C" fn fiber_entry() -> ! {
    let ctx = CURRENT.with(Cell::get);
    // SAFETY: the first `resume` set `CURRENT` to this fiber's boxed
    // context before switching here, and it outlives the switch.
    let job = unsafe { (*ctx).job.take() };
    let outcome = catch_unwind(AssertUnwindSafe(|| job.map(|job| job())));
    // Re-read: the context is the same, but the pointer the resume in
    // progress derived is the one that is valid now.
    let ctx = CURRENT.with(Cell::get);
    // SAFETY: as above; nothing on this stack needs dropping any more, and
    // `done` keeps the frame below from ever being switched to again.
    unsafe {
        (*ctx).panic = outcome.err();
        (*ctx).done = true;
        let mut finished = ptr::null_mut();
        switch(&raw mut finished, (*ctx).resumer_sp);
    }
    std::process::abort()
}

/// Saves the running context on its own stack (callee-saved registers,
/// MXCSR, x87 control word), stores that stack pointer in `*save`, and
/// continues the context saved at `load`.
///
/// # Safety
/// `save` must be writable; `load` must be a frame `switch` saved, or
/// one laid out like it, on a mapped stack nothing else is running on.
// SAFETY: the body is the whole function; it follows the C ABI by hand.
#[unsafe(naked)]
// SAFETY: an `unsafe fn`; each caller says why it meets the contract above.
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// One fiber stack: `len` bytes from `base`, the lowest page the guard.
struct Stack {
    base: *mut u8,
    len: usize,
}

const SYS_MMAP: usize = 9;
const SYS_MPROTECT: usize = 10;
const SYS_MUNMAP: usize = 11;

impl Stack {
    /// A stack that maps nothing (what a leaked stack is replaced with).
    const EMPTY: Stack = Stack {
        base: ptr::null_mut(),
        len: 0,
    };

    fn map(bytes: usize) -> Stack {
        const PROT_NONE: usize = 0;
        const PROT_READ_WRITE: usize = 0x1 | 0x2;
        // MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK.
        const FLAGS: usize = 0x02 | 0x20 | 0x4000 | 0x20000;
        // A size past the address space asks for all of it, which the
        // kernel refuses below.
        let len = bytes
            .max(1)
            .checked_next_multiple_of(PAGE)
            .and_then(|usable| usable.checked_add(PAGE))
            .unwrap_or(usize::MAX);
        // SAFETY: a fresh anonymous mapping with no address hint touches
        // no memory that already exists.
        let base = unsafe { syscall6(SYS_MMAP, [0, len, PROT_READ_WRITE, FLAGS, usize::MAX, 0]) };
        assert!(
            base < usize::MAX - PAGE,
            "mapping a {len}-byte fiber stack failed (errno {})",
            base.wrapping_neg()
        );
        let stack = Stack {
            base: base as *mut u8,
            len,
        };
        // SAFETY: the lowest page of the mapping just made is this
        // stack's own, and nothing points into it yet.
        let guarded = unsafe { syscall6(SYS_MPROTECT, [base, PAGE, PROT_NONE, 0, 0, 0]) };
        assert_eq!(guarded, 0, "guarding a fiber stack failed");
        stack
    }

    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: the mapping is this stack's alone, and `Fiber::drop`
            // leaks instead of dropping a stack with live frames.
            unsafe { syscall6(SYS_MUNMAP, [self.base as usize, self.len, 0, 0, 0, 0]) };
        }
    }
}

/// A raw Linux system call; returns the kernel's result (`-errno` on
/// failure, as an unsigned word).
///
/// # Safety
/// The call must not touch memory the program still uses.
// SAFETY: an `unsafe fn`; each caller says why its call is sound.
unsafe fn syscall6(nr: usize, args: [usize; 6]) -> usize {
    let ret: usize;
    // SAFETY: the x86_64 Linux syscall convention: number in rax, six
    // arguments in rdi, rsi, rdx, r10, r8, r9; the kernel clobbers rcx and
    // r11 and no stack. What the call does is the caller's contract.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") args[0],
            in("rsi") args[1],
            in("rdx") args[2],
            in("r10") args[3],
            in("r8") args[4],
            in("r9") args[5],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const SMALL: usize = 64 << 10;

    #[test]
    fn a_job_suspends_and_resumes_where_it_stopped() {
        let log = RefCell::new(Vec::new());
        let mut fiber = Fiber::new(
            SMALL,
            Box::new(|| {
                for step in 0..3 {
                    log.borrow_mut().push(step);
                    suspend();
                }
            }),
        );
        for want in 1..=3 {
            assert!(!fiber.is_done());
            fiber.resume();
            assert_eq!(log.borrow().len(), want);
        }
        fiber.resume();
        assert!(fiber.is_done());
        assert!(fiber.take_panic().is_none());
        assert_eq!(*log.borrow(), [0, 1, 2]);
    }

    #[test]
    fn a_fiber_runs_fibers_of_its_own() {
        let log = RefCell::new(Vec::new());
        let push = |s: &'static str| log.borrow_mut().push(s);
        let mut outer = Fiber::new(
            SMALL,
            Box::new(|| {
                let mut inner = Fiber::new(
                    SMALL,
                    Box::new(|| {
                        push("inner 1");
                        suspend();
                        push("inner 2");
                    }),
                );
                inner.resume();
                push("outer 1");
                suspend();
                inner.resume();
                assert!(inner.is_done());
                push("outer 2");
            }),
        );
        outer.resume();
        push("host");
        outer.resume();
        assert!(outer.is_done());
        assert_eq!(
            *log.borrow(),
            ["inner 1", "outer 1", "host", "inner 2", "outer 2"]
        );
    }

    #[test]
    #[should_panic(expected = "fiber::suspend called outside a running fiber")]
    fn suspend_outside_a_fiber_panics() {
        suspend();
    }

    #[test]
    fn a_panicking_fiber_hands_back_its_payload() {
        let mut fiber = Fiber::new(SMALL, Box::new(|| std::panic::panic_any(41u32 + 1)));
        fiber.resume();
        assert!(fiber.is_done());
        let payload = fiber.take_panic().expect("the job panicked");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
        assert!(fiber.take_panic().is_none(), "handed back once");
    }

    #[test]
    #[should_panic(expected = "fiber stack failed")]
    fn a_stack_past_the_address_space_is_refused() {
        drop(Fiber::new(usize::MAX - 1, Box::new(|| {})));
    }

    #[test]
    #[should_panic(expected = "resumed a finished fiber")]
    fn resuming_a_finished_fiber_panics() {
        let mut fiber = Fiber::new(SMALL, Box::new(|| {}));
        fiber.resume();
        fiber.resume();
    }

    /// Whether `addr` lies in a mapping of this process.
    fn mapped(addr: usize) -> bool {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        maps.lines().any(|line| {
            let range = line.split(' ').next().unwrap_or_default();
            let (lo, hi) = range.split_once('-').unwrap_or_default();
            let parse = |s| usize::from_str_radix(s, 16).unwrap_or_default();
            (parse(lo)..parse(hi)).contains(&addr)
        })
    }

    #[test]
    fn dropping_an_unfinished_fiber_leaks_its_stack() {
        thread_local! {
            static FRAME: Cell<usize> = const { Cell::new(0) };
        }
        // The job captures nothing, so its box allocates nothing: the
        // leaked stack is the only thing this test leaks, and a leak
        // checker has no heap block to report.
        let mut fiber = Fiber::new(
            SMALL,
            Box::new(|| {
                let local = std::hint::black_box(7u64);
                FRAME.with(|f| f.set(&raw const local as usize));
                suspend();
                unreachable!("never resumed");
            }),
        );
        fiber.resume();
        assert!(!fiber.is_done());
        drop(fiber);
        let frame = FRAME.with(Cell::get);
        assert!(mapped(frame), "a stack with live frames was unmapped");
    }

    /// Recurses until the stack runs out.
    fn recurse(depth: u64) -> u64 {
        let frame = std::hint::black_box([depth; 64]);
        if std::hint::black_box(depth) == u64::MAX {
            return 0;
        }
        recurse(frame[0] + 1) + frame[63]
    }

    #[test]
    fn overflowing_a_stack_faults_on_its_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "EASGD_FIBER_OVERFLOW_CHILD";
        const SIGSEGV: i32 = 11;
        if std::env::var_os(CHILD).is_some() {
            let mut fiber = Fiber::new(
                SMALL,
                Box::new(|| {
                    std::hint::black_box(recurse(0));
                }),
            );
            fiber.resume();
            println!("the overflowing fiber returned");
            return;
        }
        // The overflow kills its process, so it runs in a child: this test
        // binary, filtered to this test. AddressSanitizer builds would
        // catch the fault and exit with an error code instead; the child
        // asks it to leave SIGSEGV to the default action.
        let asan = std::env::var("ASAN_OPTIONS").unwrap_or_default();
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "fiber::tests::overflowing_a_stack_faults_on_its_guard_page",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .env("ASAN_OPTIONS", format!("{asan}:handle_segv=0"))
            .output()
            .expect("spawn the child test");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("returned"), "{stdout}");
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "{:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
