//! Loadable program images.
//!
//! An [`Image`] is the RM64 equivalent of a (statically linked, position
//! dependent) ELF executable: a `.text` section holding code, a `.data`
//! section holding globals, and a symbol table. The ROP rewriter consumes and
//! produces images: it reads function bytes out of `.text`, replaces them
//! with a pivot stub, appends chains (and the stack-switching array) to
//! `.data`, and may append *artificial gadgets* as dead code at the end of
//! `.text` — exactly the degrees of freedom §IV-A of the paper exploits.

use crate::asm::{AsmError, Assembler, SymbolResolver};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Default load address of the `.text` section.
pub const TEXT_BASE: u64 = 0x0001_0000;
/// Default load address of the `.data` section.
pub const DATA_BASE: u64 = 0x0040_0000;
/// Top of the native stack (the stack grows down from here).
pub const STACK_TOP: u64 = 0x07f0_0000;
/// Size of the native stack region in bytes.
pub const STACK_SIZE: u64 = 0x0010_0000;
/// Base of the guest heap used by the MiniC runtime's bump allocator.
pub const HEAP_BASE: u64 = 0x0100_0000;
/// Size of the guest heap region in bytes.
pub const HEAP_SIZE: u64 = 0x0200_0000;
/// Return address sentinel pushed by the emulator before entering a function.
pub const RETURN_SENTINEL: u64 = 0xdead_0000_beef_0000;

/// A named function inside the image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncSym {
    /// Function name.
    pub name: String,
    /// Absolute address of the first instruction.
    pub addr: u64,
    /// Size of the function body in bytes.
    pub size: u64,
}

/// A fully linked program image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Load address of `.text`.
    pub text_base: u64,
    /// Raw bytes of `.text`.
    pub text: Vec<u8>,
    /// Load address of `.data`.
    pub data_base: u64,
    /// Raw bytes of `.data`.
    pub data: Vec<u8>,
    /// Global symbol table (functions and data objects).
    pub symbols: BTreeMap<String, u64>,
    /// Function symbols with sizes, in address order.
    pub functions: Vec<FuncSym>,
}

/// Error produced when querying or mutating an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The requested symbol does not exist.
    UnknownSymbol(String),
    /// The requested function does not exist.
    UnknownFunction(String),
    /// An address range falls outside the relevant section.
    OutOfRange {
        /// Start address of the offending range.
        addr: u64,
        /// Length of the offending range.
        len: usize,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
            ImageError::UnknownFunction(s) => write!(f, "unknown function `{s}`"),
            ImageError::OutOfRange { addr, len } => {
                write!(f, "range {addr:#x}+{len:#x} outside the image")
            }
        }
    }
}

impl std::error::Error for ImageError {}

impl Image {
    /// Address of a symbol.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::UnknownSymbol`] if absent.
    pub fn symbol(&self, name: &str) -> Result<u64, ImageError> {
        self.symbols.get(name).copied().ok_or_else(|| ImageError::UnknownSymbol(name.to_string()))
    }

    /// Function symbol by name.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::UnknownFunction`] if absent.
    pub fn function(&self, name: &str) -> Result<&FuncSym, ImageError> {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| ImageError::UnknownFunction(name.to_string()))
    }

    /// The function containing `addr`, if any.
    pub fn function_at(&self, addr: u64) -> Option<&FuncSym> {
        self.functions.iter().find(|f| addr >= f.addr && addr < f.addr + f.size)
    }

    /// Whether `addr` lies inside the `.text` section.
    pub fn in_text(&self, addr: u64) -> bool {
        addr >= self.text_base && addr < self.text_base + self.text.len() as u64
    }

    /// Whether `addr` lies inside the `.data` section.
    pub fn in_data(&self, addr: u64) -> bool {
        addr >= self.data_base && addr < self.data_base + self.data.len() as u64
    }

    /// The bytes of the named function.
    ///
    /// # Errors
    ///
    /// Returns an error when the function is unknown.
    pub fn function_bytes(&self, name: &str) -> Result<&[u8], ImageError> {
        let f = self.function(name)?;
        self.text_slice(f.addr, f.size as usize)
    }

    /// A slice of `.text` by absolute address.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] when the range is not fully inside
    /// `.text`.
    pub fn text_slice(&self, addr: u64, len: usize) -> Result<&[u8], ImageError> {
        let start =
            addr.checked_sub(self.text_base).ok_or(ImageError::OutOfRange { addr, len })? as usize;
        self.text.get(start..start + len).ok_or(ImageError::OutOfRange { addr, len })
    }

    /// A slice of `.data` by absolute address.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] when the range is not fully inside
    /// `.data`.
    pub fn data_slice(&self, addr: u64, len: usize) -> Result<&[u8], ImageError> {
        let start =
            addr.checked_sub(self.data_base).ok_or(ImageError::OutOfRange { addr, len })? as usize;
        self.data.get(start..start + len).ok_or(ImageError::OutOfRange { addr, len })
    }

    /// Overwrites part of `.text` in place (used to replace a rewritten
    /// function's body with its pivot stub).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] when the patch does not fit.
    pub fn patch_text(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ImageError> {
        let start = addr
            .checked_sub(self.text_base)
            .ok_or(ImageError::OutOfRange { addr, len: bytes.len() })? as usize;
        let dst = self
            .text
            .get_mut(start..start + bytes.len())
            .ok_or(ImageError::OutOfRange { addr, len: bytes.len() })?;
        dst.copy_from_slice(bytes);
        Ok(())
    }

    /// Appends raw bytes to `.text` (artificial gadgets live here) and
    /// registers an optional symbol for them. Returns the load address.
    pub fn append_text(&mut self, name: Option<&str>, bytes: &[u8]) -> u64 {
        let addr = self.text_base + self.text.len() as u64;
        self.text.extend_from_slice(bytes);
        if let Some(n) = name {
            self.symbols.insert(n.to_string(), addr);
        }
        addr
    }

    /// Appends raw bytes to `.data` (ROP chains, the stack-switching array,
    /// spill slots, the P1 opaque array) with 8-byte alignment and registers
    /// an optional symbol. Returns the load address.
    pub fn append_data(&mut self, name: Option<&str>, bytes: &[u8]) -> u64 {
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        if let Some(n) = name {
            self.symbols.insert(n.to_string(), addr);
        }
        addr
    }

    /// Total size of the image in bytes (text + data).
    pub fn size(&self) -> usize {
        self.text.len() + self.data.len()
    }
}

impl SymbolResolver for Image {
    fn resolve(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }
}

/// Builds an [`Image`] from functions and data objects, resolving
/// cross-references (forward calls, global addresses) in a final link step.
#[derive(Default)]
pub struct ImageBuilder {
    data: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    funcs: Vec<(String, Assembler)>,
}

impl ImageBuilder {
    /// Creates a builder with the default section layout.
    pub fn new() -> ImageBuilder {
        ImageBuilder::default()
    }

    /// Adds a function from an assembler; its address is assigned at link
    /// time.
    pub fn add_function(&mut self, name: impl Into<String>, asm: Assembler) -> &mut Self {
        self.funcs.push((name.into(), asm));
        self
    }

    /// Adds an initialized data object and returns its absolute address.
    pub fn add_data(&mut self, name: impl Into<String>, bytes: &[u8]) -> u64 {
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        self.symbols.insert(name.into(), addr);
        addr
    }

    /// Adds a zero-initialized data object of `size` bytes and returns its
    /// absolute address.
    pub fn add_bss(&mut self, name: impl Into<String>, size: usize) -> u64 {
        self.add_data(name, &vec![0u8; size])
    }

    /// Links everything into an [`Image`].
    ///
    /// # Errors
    ///
    /// Fails when a referenced symbol is unknown or a relative branch does
    /// not fit.
    pub fn build(self) -> Result<Image, AsmError> {
        // Pass 1: lay out functions (sizes are resolution-independent).
        let mut addr = TEXT_BASE;
        let mut layout = Vec::new();
        for (name, asm) in &self.funcs {
            let size = asm.byte_len() as u64;
            layout.push(FuncSym { name: name.clone(), addr, size });
            // Pad functions to 16 bytes so scanning one function does not
            // run into the next by accident, mirroring compiler alignment.
            addr += size;
            addr = (addr + 15) & !15;
        }

        let mut symbols = self.symbols;
        for f in &layout {
            symbols.insert(f.name.clone(), f.addr);
        }

        // Pass 2: assemble with the complete symbol table.
        let mut text = Vec::with_capacity((addr - TEXT_BASE) as usize);
        for ((_, asm), sym) in self.funcs.iter().zip(&layout) {
            // Padding up to the assigned address (alignment bytes are HLTs so
            // a stray fall-through traps rather than executing garbage).
            while TEXT_BASE + text.len() as u64 != sym.addr {
                text.push(0x01);
            }
            text.extend_from_slice(&asm.assemble(sym.addr, &symbols)?);
        }

        Ok(Image {
            text_base: TEXT_BASE,
            text,
            data_base: DATA_BASE,
            data: self.data,
            symbols,
            functions: layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst};
    use crate::reg::Reg;

    fn tiny_image() -> Image {
        let mut b = ImageBuilder::new();
        let mut callee = Assembler::new();
        callee.inst(Inst::MovRI(Reg::Rax, 7)).inst(Inst::Ret);
        let mut main = Assembler::new();
        main.call_sym("callee").inst(Inst::AluI(AluOp::Add, Reg::Rax, 1)).inst(Inst::Ret);
        b.add_function("callee", callee);
        b.add_function("main", main);
        b.add_data("counter", &42u64.to_le_bytes());
        b.build().unwrap()
    }

    #[test]
    fn symbols_and_functions_are_registered() {
        let img = tiny_image();
        assert!(img.symbol("callee").is_ok());
        assert!(img.symbol("main").is_ok());
        assert!(img.symbol("counter").unwrap() >= DATA_BASE);
        assert!(img.function("main").unwrap().size > 0);
        assert!(matches!(img.symbol("missing"), Err(ImageError::UnknownSymbol(_))));
    }

    #[test]
    fn forward_call_resolves_to_function_start() {
        // "main" calls "callee" which is laid out *before* it; also test the
        // reverse by swapping insertion order.
        let mut b = ImageBuilder::new();
        let mut first = Assembler::new();
        first.call_sym("second").inst(Inst::Ret);
        let mut second = Assembler::new();
        second.inst(Inst::Ret);
        b.add_function("first", first);
        b.add_function("second", second);
        let img = b.build().unwrap();
        let bytes = img.function_bytes("first").unwrap();
        let (inst, _) = crate::encode::decode(bytes).unwrap();
        match inst {
            Inst::Call(rel) => {
                let next = img.function("first").unwrap().addr + 5;
                assert_eq!(next.wrapping_add(rel as i64 as u64), img.symbol("second").unwrap());
            }
            other => panic!("expected call, got {other}"),
        }
    }

    #[test]
    fn patch_and_append_apis_work() {
        let mut img = tiny_image();
        let gadget_addr = img.append_text(Some("gadget_pool"), &[crate::encode::OP_RET]);
        assert!(img.in_text(gadget_addr));
        assert_eq!(img.text_slice(gadget_addr, 1).unwrap(), &[crate::encode::OP_RET]);

        let chain_addr = img.append_data(Some("chain0"), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(chain_addr % 8, 0);
        assert!(img.in_data(chain_addr));

        let main_addr = img.function("main").unwrap().addr;
        img.patch_text(main_addr, &[0x01]).unwrap();
        assert_eq!(img.text_slice(main_addr, 1).unwrap(), &[0x01]);

        assert!(img.patch_text(img.text_base + img.text.len() as u64, &[0, 0]).is_err());
    }

    #[test]
    fn function_at_finds_enclosing_function() {
        let img = tiny_image();
        let main = img.function("main").unwrap().clone();
        assert_eq!(img.function_at(main.addr + 1).map(|f| f.name.as_str()), Some("main"));
        assert_eq!(img.function_at(0xffff_ffff), None);
    }

    #[test]
    fn functions_are_aligned_and_padded_with_hlt() {
        let img = tiny_image();
        for f in &img.functions {
            assert_eq!(f.addr % 16, 0, "{} not 16-byte aligned", f.name);
        }
    }
}
