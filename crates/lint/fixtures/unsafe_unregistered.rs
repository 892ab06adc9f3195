// Seeded violation: an `unsafe` block in a file with no [[carveout]]
// registry entry. The SAFETY comment clippy demands is present, so
// the block is otherwise compliant.
pub fn poke(p: *mut u8) {
    // SAFETY: fixture — never compiled or run.
    unsafe {
        *p = 0;
    }
}
