//! XML (de)serialization of instruction pools, matching the paper's
//! configuration schema (Figure 4):
//!
//! ```xml
//! <instructions>
//!   <operand id="mem_result" values="x2 x3 x4" type="register"/>
//!   <operand id="immediate_value" min="0" max="256" stride="8" type="immediate"/>
//!   <operand id="skip" min="1" max="3" type="branch"/>
//!   <instruction name="LDR" num_of_operands="3"
//!       operand1="mem_result" operand2="mem_address_register"
//!       operand3="immediate_value" format="LDR op1,[op2,#op3]" type="mem"/>
//! </instructions>
//! ```

use crate::def::{
    InstructionDef, InstructionPart, InstructionPool, OperandDef, OperandKind, PoolBuilder,
};
use crate::opcode::Opcode;
use crate::reg::{Reg, VReg};
use crate::IsaError;
use gest_xml::Element;

/// Parses every `<operand>` and `<instruction>` child of `element` into a
/// validated [`InstructionPool`].
///
/// # Errors
///
/// Returns [`IsaError::Config`] for schema problems (missing attributes,
/// unparsable values) and the pool-validation errors of
/// [`PoolBuilder::build`] for semantic problems.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let doc = gest_xml::Document::parse(
///     r#"<instructions>
///          <operand id="r" values="x1 x2" type="register"/>
///          <instruction name="ADD" num_of_operands="3"
///              operand1="r" operand2="r" operand3="r" type="shortint"/>
///        </instructions>"#,
/// )?;
/// let pool = gest_isa::pool_from_xml(doc.root())?;
/// assert_eq!(pool.defs().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn pool_from_xml(element: &Element) -> Result<InstructionPool, IsaError> {
    let mut builder = PoolBuilder::new();
    for child in element.children_named("operand") {
        builder = builder.operand(parse_operand(child)?);
    }
    for child in element.children_named("instruction") {
        builder = builder.instruction(parse_instruction(child)?);
    }
    builder.build()
}

fn required<'a>(element: &'a Element, attr: &str) -> Result<&'a str, IsaError> {
    element.attr(attr).ok_or_else(|| {
        IsaError::Config(format!(
            "<{}> element missing {attr:?} attribute",
            element.name()
        ))
    })
}

fn parse_operand(element: &Element) -> Result<OperandDef, IsaError> {
    let id = required(element, "id")?.to_owned();
    let kind_name = required(element, "type")?;
    let kind = match kind_name {
        "register" => {
            let values = required(element, "values")?;
            parse_register_list(&id, values)?
        }
        "immediate" => OperandKind::Imm {
            min: parse_int(element, "min")?,
            max: parse_int(element, "max")?,
            stride: element.attr("stride").map_or(Ok(1), |s| {
                s.parse()
                    .map_err(|_| IsaError::Config(format!("operand {id:?}: bad stride {s:?}")))
            })?,
        },
        "branch" => OperandKind::BranchOffset {
            min: parse_int(element, "min")? as u8,
            max: parse_int(element, "max")? as u8,
        },
        other => {
            return Err(IsaError::Config(format!(
                "operand {id:?}: unknown type {other:?} (expected register/immediate/branch)"
            )))
        }
    };
    Ok(OperandDef::new(id, kind))
}

fn parse_register_list(id: &str, values: &str) -> Result<OperandKind, IsaError> {
    let names: Vec<&str> = values.split_whitespace().collect();
    if names.is_empty() {
        return Err(IsaError::EmptyDefinition { id: id.to_owned() });
    }
    if names[0].starts_with('v') {
        let regs: Result<Vec<VReg>, _> = names.iter().map(|n| n.parse()).collect();
        Ok(OperandKind::VecReg(regs.map_err(|_| {
            IsaError::Config(format!(
                "operand {id:?}: bad vector register list {values:?}"
            ))
        })?))
    } else {
        let regs: Result<Vec<Reg>, _> = names.iter().map(|n| n.parse()).collect();
        Ok(OperandKind::IntReg(regs.map_err(|_| {
            IsaError::Config(format!(
                "operand {id:?}: bad integer register list {values:?}"
            ))
        })?))
    }
}

fn parse_int(element: &Element, attr: &str) -> Result<i64, IsaError> {
    let raw = required(element, attr)?;
    raw.parse().map_err(|_| {
        IsaError::Config(format!(
            "<{}> attribute {attr:?}: expected an integer, found {raw:?}",
            element.name()
        ))
    })
}

fn parse_instruction(element: &Element) -> Result<InstructionDef, IsaError> {
    let name = required(element, "name")?.to_owned();
    // Sequence definitions (paper: atomically-included instruction
    // sequences) carry their instructions as <part> children.
    let part_elements: Vec<&Element> = element.children_named("part").collect();
    let parts = if part_elements.is_empty() {
        vec![parse_part(element, Some(&name))?]
    } else {
        part_elements
            .into_iter()
            .map(|part| parse_part(part, None))
            .collect::<Result<_, _>>()?
    };
    Ok(InstructionDef {
        name,
        parts,
        format: element.attr("format").map(str::to_owned),
    })
}

/// Parses the opcode/operand attributes shared by flat `<instruction>`
/// elements and `<part>` children. `default_mnemonic` supplies the
/// definition name as the opcode fallback for the flat form.
fn parse_part(
    element: &Element,
    default_mnemonic: Option<&str>,
) -> Result<InstructionPart, IsaError> {
    let mnemonic = match (element.attr("opcode"), default_mnemonic) {
        (Some(op), _) => op,
        // The mnemonic defaults to the definition name, so variants like
        // "LDR_near" need an explicit opcode attribute.
        (None, Some(name)) => name,
        (None, None) => return Err(IsaError::Config("<part> missing opcode attribute".into())),
    };
    let opcode = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| IsaError::UnknownMnemonic(mnemonic.to_owned()))?;
    let count: usize = parse_int(element, "num_of_operands")? as usize;
    let mut operand_ids = Vec::with_capacity(count);
    for i in 1..=count {
        operand_ids.push(required(element, &format!("operand{i}"))?.to_owned());
    }
    Ok(InstructionPart {
        opcode,
        operand_ids,
    })
}

/// Serializes a pool back to the paper's XML schema, for record-keeping in
/// run output directories.
pub fn pool_to_xml(pool: &InstructionPool) -> Element {
    let mut root = Element::new("instructions");
    for operand in pool.operands() {
        let mut el = Element::new("operand");
        el.set_attr("id", &operand.id);
        match &operand.kind {
            OperandKind::IntReg(regs) => {
                el.set_attr("type", "register");
                el.set_attr(
                    "values",
                    regs.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                );
            }
            OperandKind::VecReg(regs) => {
                el.set_attr("type", "register");
                el.set_attr(
                    "values",
                    regs.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                );
            }
            OperandKind::Imm { min, max, stride } => {
                el.set_attr("type", "immediate");
                el.set_attr("min", min.to_string());
                el.set_attr("max", max.to_string());
                el.set_attr("stride", stride.to_string());
            }
            OperandKind::BranchOffset { min, max } => {
                el.set_attr("type", "branch");
                el.set_attr("min", min.to_string());
                el.set_attr("max", max.to_string());
            }
        }
        root.push_child(el);
    }
    for def in pool.defs() {
        let mut el = Element::new("instruction");
        el.set_attr("name", &def.name);
        if def.parts.len() == 1 {
            let part = &def.parts[0];
            el.set_attr("opcode", part.opcode.mnemonic());
            el.set_attr("num_of_operands", part.operand_ids.len().to_string());
            for (i, id) in part.operand_ids.iter().enumerate() {
                el.set_attr(format!("operand{}", i + 1), id.clone());
            }
        } else {
            for part in &def.parts {
                let mut part_el = Element::new("part");
                part_el.set_attr("opcode", part.opcode.mnemonic());
                part_el.set_attr("num_of_operands", part.operand_ids.len().to_string());
                for (i, id) in part.operand_ids.iter().enumerate() {
                    part_el.set_attr(format!("operand{}", i + 1), id.clone());
                }
                el.push_child(part_el);
            }
        }
        if let Some(format) = &def.format {
            el.set_attr("format", format.clone());
        }
        el.set_attr("type", def.opcode().class().label());
        root.push_child(el);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_xml::Document;

    const PAPER_EXAMPLE: &str = r#"
        <instructions>
          <operand id="mem_result" values="x2 x3 x4" type="register"/>
          <operand id="mem_address_register" values="x10" type="register"/>
          <operand id="immediate_value" min="0" max="256" stride="8" type="immediate"/>
          <instruction name="LDR" num_of_operands="3"
              operand1="mem_result" operand2="mem_address_register"
              operand3="immediate_value" format="LDR op1,[op2,#op3]" type="mem"/>
        </instructions>"#;

    #[test]
    fn paper_figure4_parses() {
        let doc = Document::parse(PAPER_EXAMPLE).unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        assert_eq!(pool.defs().len(), 1);
        assert_eq!(pool.variations(0), 99, "paper: 99 possible LDR forms");
        assert_eq!(pool.defs()[0].format.as_deref(), Some("LDR op1,[op2,#op3]"));
    }

    #[test]
    fn vector_registers_detected_by_prefix() {
        let doc = Document::parse(
            r#"<i>
                 <operand id="v" values="v0 v1 v2" type="register"/>
                 <instruction name="FMUL" num_of_operands="3"
                     operand1="v" operand2="v" operand3="v" type="float"/>
               </i>"#,
        )
        .unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        assert_eq!(pool.variations(0), 27);
    }

    #[test]
    fn branch_operand_type() {
        let doc = Document::parse(
            r#"<i>
                 <operand id="skip" min="1" max="3" type="branch"/>
                 <instruction name="B" num_of_operands="1" operand1="skip" type="branch"/>
               </i>"#,
        )
        .unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        assert_eq!(pool.variations(0), 3);
    }

    #[test]
    fn explicit_opcode_attribute() {
        let doc = Document::parse(
            r#"<i>
                 <operand id="r" values="x1" type="register"/>
                 <operand id="near" min="0" max="8" stride="8" type="immediate"/>
                 <instruction name="LDR_near" opcode="LDR" num_of_operands="3"
                     operand1="r" operand2="r" operand3="near" type="mem"/>
               </i>"#,
        )
        .unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        assert_eq!(pool.defs()[0].opcode(), Opcode::Ldr);
        assert_eq!(pool.defs()[0].name, "LDR_near");
    }

    #[test]
    fn missing_attributes_are_config_errors() {
        let doc = Document::parse(r#"<i><operand id="r" type="register"/></i>"#).unwrap();
        assert!(matches!(
            pool_from_xml(doc.root()),
            Err(IsaError::Config(_))
        ));

        let doc = Document::parse(
            r#"<i>
                 <operand id="r" values="x1" type="register"/>
                 <instruction name="ADD" num_of_operands="3" operand1="r" operand2="r"/>
               </i>"#,
        )
        .unwrap();
        assert!(matches!(
            pool_from_xml(doc.root()),
            Err(IsaError::Config(_))
        ));
    }

    #[test]
    fn unknown_operand_type_rejected() {
        let doc = Document::parse(r#"<i><operand id="r" type="label" values="a"/></i>"#).unwrap();
        assert!(matches!(
            pool_from_xml(doc.root()),
            Err(IsaError::Config(_))
        ));
    }

    #[test]
    fn sequence_definitions_parse_and_round_trip() {
        let doc = Document::parse(
            r#"<i>
                 <operand id="r" values="x1 x2" type="register"/>
                 <operand id="base" values="x10" type="register"/>
                 <operand id="off" min="0" max="64" stride="8" type="immediate"/>
                 <instruction name="LOAD_USE" type="seq">
                   <part opcode="LDR" num_of_operands="3"
                       operand1="r" operand2="base" operand3="off"/>
                   <part opcode="ADD" num_of_operands="3"
                       operand1="r" operand2="r" operand3="r"/>
                 </instruction>
               </i>"#,
        )
        .unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        assert_eq!(pool.defs()[0].parts.len(), 2);
        assert_eq!(pool.defs()[0].parts[0].opcode, Opcode::Ldr);
        assert_eq!(pool.defs()[0].parts[1].opcode, Opcode::Add);
        // 2×1×9 × 2×2×2 variations.
        assert_eq!(pool.variations(0), 18 * 8);
        let text = pool_to_xml(&pool).to_string();
        let reparsed = pool_from_xml(Document::parse(&text).unwrap().root()).unwrap();
        assert_eq!(reparsed, pool);
    }

    #[test]
    fn part_without_opcode_rejected() {
        let doc = Document::parse(
            r#"<i>
                 <operand id="r" values="x1" type="register"/>
                 <instruction name="S"><part num_of_operands="0"/></instruction>
               </i>"#,
        )
        .unwrap();
        assert!(matches!(
            pool_from_xml(doc.root()),
            Err(IsaError::Config(_))
        ));
    }

    #[test]
    fn xml_round_trip() {
        let doc = Document::parse(PAPER_EXAMPLE).unwrap();
        let pool = pool_from_xml(doc.root()).unwrap();
        let xml = pool_to_xml(&pool);
        let text = xml.to_string();
        let reparsed = pool_from_xml(Document::parse(&text).unwrap().root()).unwrap();
        assert_eq!(reparsed, pool);
    }

    #[test]
    fn memoized_text_is_the_compact_rendering() {
        let pool = pool_from_xml(Document::parse(PAPER_EXAMPLE).unwrap().root()).unwrap();
        let fresh = pool.clone();
        assert_eq!(pool.xml_text(), pool_to_xml(&pool).to_string());
        assert_eq!(pool.xml_text(), pool_to_xml(&pool).to_string(), "kept");
        assert_eq!(pool, fresh, "the memo is not part of a pool's identity");
        assert_eq!(pool.clone().xml_text(), fresh.xml_text());
    }
}
