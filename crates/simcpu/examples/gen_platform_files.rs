//! Regenerate the checked-in `platforms/*.toml` model files in canonical
//! form from the in-memory built-in specs.
//!
//! The files are the only definitions of the built-in platforms. Since the
//! renderer round-trips exactly, re-running this is idempotent and serves as
//! a canonicalizer after hand edits; `tests/spec_digest.txt` then shows
//! which fields an edit changed.
//!
//!     cargo run -p simcpu --example gen_platform_files

use simcpu::platform::all_platforms;
use simcpu::render_platform;

fn main() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../platforms");
    std::fs::create_dir_all(&dir).expect("create platforms/");
    for spec in all_platforms() {
        let path = dir.join(format!("{}.toml", spec.name));
        std::fs::write(&path, render_platform(&spec))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
