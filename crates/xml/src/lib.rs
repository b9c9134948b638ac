#![warn(missing_docs)]

//! Minimal, dependency-free XML parser for GeST configuration files.
//!
//! GeST (ISPASS 2019) drives its genetic-algorithm search entirely from XML
//! configuration files: a main configuration plus per-measurement
//! configurations, with instruction and operand definitions expressed as XML
//! elements (paper Figure 4). This crate implements the subset of XML 1.0
//! those files need:
//!
//! * elements with attributes (single- or double-quoted),
//! * character data, CDATA sections, comments, processing instructions,
//! * the five predefined entities plus decimal/hex character references,
//! * a pull-based [`Reader`] producing [`Event`]s, and
//! * a tree API ([`Document`] / [`Element`]) built on top of the reader.
//!
//! It deliberately omits DTDs, namespaces-as-semantics (prefixes are kept
//! verbatim in names) and external entities.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), gest_xml::XmlError> {
//! let doc = gest_xml::Document::parse(
//!     r#"<instruction name="LDR" num_of_operands="3"/>"#,
//! )?;
//! assert_eq!(doc.root().attr("name"), Some("LDR"));
//! # Ok(())
//! # }
//! ```

mod error;
mod escape;
mod reader;
mod tree;
mod writer;

pub use error::{Position, XmlError};
pub use escape::{escape_attr, escape_text, unescape};
pub use reader::{Event, Reader};
pub use tree::{Document, Element, Node, MAX_DEPTH};
pub use writer::Writer;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let doc = Document::parse("<a><b x='1'/><b x=\"2\">hi</b></a>").unwrap();
        let root = doc.root();
        assert_eq!(root.name(), "a");
        let bs: Vec<_> = root.children_named("b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].attr("x"), Some("1"));
        assert_eq!(bs[1].text(), "hi");
    }
}
