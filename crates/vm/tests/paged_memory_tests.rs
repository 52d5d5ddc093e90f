//! Page-boundary and copy-on-write coverage for the paged VM memory:
//! accesses that straddle two 4 KiB pages, clones that must not alias
//! their source, and resets that must leave memory byte-equal to a
//! freshly built VM.

use parallax_image::Program;
use parallax_vm::syscall::{dispatch, SyscallState};
use parallax_vm::{Cpu, Memory, Vm, HEAP_SIZE, PAGE_SIZE, STACK_SIZE, STACK_TOP};
use parallax_x86::{Asm, Reg32};

const DATA: u32 = 0x2000;

/// Memory whose initialized data covers two pages with a byte pattern.
fn patterned() -> Memory {
    let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
    Memory::new(vec![0x90, 0xc3], 0x1000, &data, DATA, 64)
}

fn pattern(vaddr: u32) -> u8 {
    ((vaddr - DATA) * 7 + 3) as u8
}

/// Every byte of the data and stack regions.
fn snapshot(m: &Memory) -> (Vec<u8>, Vec<u8>) {
    let data = m.read_bytes(m.data_base(), m.data_end() - m.data_base());
    let stack = m.read_bytes(STACK_TOP - STACK_SIZE, STACK_SIZE);
    (data.unwrap().into_owned(), stack.unwrap().into_owned())
}

#[test]
fn reads_straddle_a_data_page_boundary() {
    let m = patterned();
    let edge = DATA + PAGE_SIZE;
    for at in edge - 3..edge {
        let want = u32::from_le_bytes([0, 1, 2, 3].map(|k| pattern(at + k)));
        assert_eq!(m.read32(at).unwrap(), want, "{at:#x}");
    }
    let hi = u32::from_le_bytes([0, 1, 2, 3].map(|k| pattern(edge + 2 + k)));
    let lo = u32::from_le_bytes([0, 1, 2, 3].map(|k| pattern(edge - 2 + k)));
    assert_eq!(m.read32_pair(edge - 2).unwrap(), (lo, hi));
    let bytes = m.read_bytes(edge - 5, 10).unwrap();
    assert_eq!(
        &*bytes,
        &(edge - 5..edge + 5).map(pattern).collect::<Vec<_>>()[..]
    );
}

#[test]
fn writes_straddle_page_boundaries_in_data_and_stack() {
    let mut m = patterned();
    let stack_edge = STACK_TOP - PAGE_SIZE;
    for edge in [DATA + PAGE_SIZE, m.heap_base() + 3 * PAGE_SIZE, stack_edge] {
        for at in edge - 3..edge {
            m.write32(at, 0xa1b2_c3d4).unwrap();
            assert_eq!(m.read32(at).unwrap(), 0xa1b2_c3d4, "{at:#x}");
            assert_eq!(
                &*m.read_bytes(at, 4).unwrap(),
                &[0xd4, 0xc3, 0xb2, 0xa1],
                "{at:#x}"
            );
        }
        m.write32(edge - 4, 0x1111_1111).unwrap();
        m.write32(edge, 0x2222_2222).unwrap();
        assert_eq!(m.read32_pair(edge - 4).unwrap(), (0x1111_1111, 0x2222_2222));
        m.write_bytes(edge - 6, b"across").unwrap();
        assert_eq!(&*m.read_bytes(edge - 6, 6).unwrap(), b"across");
        // The byte after the write keeps its value.
        assert_eq!(m.read8(edge).unwrap(), 0x22);
    }
}

#[test]
fn syscall_write_buffer_spans_pages() {
    let mut m = patterned();
    let msg = b"one buffer, two pages";
    let buf = DATA + PAGE_SIZE - 7;
    m.write_bytes(buf, msg).unwrap();
    let mut cpu = Cpu::default();
    let mut sys = SyscallState::new(1);
    cpu.set_reg(Reg32::Eax, 4);
    cpu.set_reg(Reg32::Ebx, 1);
    cpu.set_reg(Reg32::Ecx, buf);
    cpu.set_reg(Reg32::Edx, msg.len() as u32);
    dispatch(&mut cpu, &mut m, &mut sys).unwrap();
    assert_eq!(sys.output, msg);
    assert_eq!(cpu.reg(Reg32::Eax), msg.len() as u32);
}

#[test]
fn a_writing_clone_leaves_source_and_siblings_untouched() {
    let source = patterned();
    let before = snapshot(&source);
    let (mut a, mut b) = (source.clone(), source.clone());
    let sp = source.initial_esp();
    a.write32(DATA + 8, 0xaaaa_aaaa).unwrap();
    a.write32(sp - 4, 0xaaaa_aaaa).unwrap();
    a.write32(a.heap_base() + 0x1600, 0xaaaa_aaaa).unwrap();
    b.write32(DATA + 8, 0xbbbb_bbbb).unwrap();
    assert_eq!(snapshot(&source), before);
    assert_eq!(a.read32(DATA + 8).unwrap(), 0xaaaa_aaaa);
    assert_eq!(b.read32(DATA + 8).unwrap(), 0xbbbb_bbbb);
    assert_eq!(b.read32(sp - 4).unwrap(), 0);
    assert_eq!(b.read32(b.heap_base() + 0x1600).unwrap(), 0);
    // Each clone copied only the pages it wrote; cloning copied none.
    assert_eq!(
        (source.pages_copied(), a.pages_copied(), b.pages_copied()),
        (0, 3, 1)
    );
    // A clone of a written clone shares nothing writable with it.
    let mut c = a.clone();
    c.write32(DATA + 8, 0xcccc_cccc).unwrap();
    assert_eq!(a.read32(DATA + 8).unwrap(), 0xaaaa_aaaa);
}

/// A program that scribbles on its stack and exits.
fn image() -> parallax_image::LinkedImage {
    let mut a = Asm::new();
    for v in 0..64 {
        a.push_i(v);
    }
    a.mov_ri(Reg32::Eax, 1);
    a.mov_ri(Reg32::Ebx, 0);
    a.int(0x80);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

#[test]
fn reset_after_heap_stack_and_scratch_writes_matches_a_fresh_vm() {
    let img = image();
    let fresh = Vm::new(&img);
    let mut vm = Vm::new(&img);
    let pristine = vm.mem().clone();
    for _ in 0..3 {
        vm.run();
        let m = vm.mem_mut();
        let heap = m.heap_base();
        // Heap, the probe scratch windows, and the stack, including
        // straddling writes and the last heap byte.
        m.write_bytes(heap, &[0xee; 64]).unwrap();
        for i in 0..8 {
            let window = heap + 0x1600 + i * 0x1000;
            m.write_bytes(window, &[i as u8 + 1; 0x400]).unwrap();
        }
        m.write32(heap + HEAP_SIZE - 4, 7).unwrap();
        m.write32(heap + 2 * PAGE_SIZE - 2, 7).unwrap();
        m.write32(STACK_TOP - STACK_SIZE, 9).unwrap();
        m.write32(STACK_TOP - PAGE_SIZE - 1, 9).unwrap();
        let data = m.data_base();
        m.write32(data, 1).unwrap();
        vm.reset_to(&pristine);
        assert_eq!(snapshot(vm.mem()), snapshot(fresh.mem()));
        assert_eq!(vm.cpu.esp(), fresh.cpu.esp());
        assert_eq!(vm.cpu.eip, fresh.cpu.eip);
    }
}
