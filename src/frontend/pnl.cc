#include "frontend/pnl.hh"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "rtl/analysis.hh"
#include "util/logging.hh"
#include "util/strcat.hh"

namespace parendi::frontend {

using namespace rtl;

namespace {

/** Binary/unary op mnemonics accepted in PNL node lines. */
const std::unordered_map<std::string, Op> &
opTable()
{
    static const std::unordered_map<std::string, Op> table = {
        {"not", Op::Not},       {"neg", Op::Neg},
        {"redand", Op::RedAnd}, {"redor", Op::RedOr},
        {"redxor", Op::RedXor}, {"and", Op::And},
        {"or", Op::Or},         {"xor", Op::Xor},
        {"add", Op::Add},       {"sub", Op::Sub},
        {"mul", Op::Mul},       {"shl", Op::Shl},
        {"shr", Op::Shr},       {"sra", Op::Sra},
        {"eq", Op::Eq},         {"ne", Op::Ne},
        {"ult", Op::Ult},       {"ule", Op::Ule},
        {"slt", Op::Slt},       {"sle", Op::Sle},
    };
    return table;
}

struct Parser
{
    explicit Parser(const std::string &text) : in(text) {}

    std::istringstream in;
    int lineNo = 0;
    std::unordered_map<std::string, NodeId> labels;

    [[noreturn]] void
    err(const std::string &msg)
    {
        fatal("pnl line %d: %s", lineNo, msg.c_str());
    }

    NodeId
    ref(Netlist &nl, const std::string &tok)
    {
        (void)nl;
        if (tok.empty() || tok[0] != '%')
            err("expected %label, got '" + tok + "'");
        auto it = labels.find(tok.substr(1));
        if (it == labels.end())
            err("undefined label " + tok);
        return it->second;
    }

    uint64_t
    num(const std::string &tok)
    {
        try {
            size_t pos = 0;
            uint64_t v = std::stoull(tok, &pos, 10);
            if (pos != tok.size())
                err("bad number '" + tok + "'");
            return v;
        } catch (const std::logic_error &) {
            err("bad number '" + tok + "'");
        }
    }

    Netlist parse();
};

Netlist
Parser::parse()
{
    Netlist nl("pnl");
    bool got_header = false;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNo;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::vector<std::string> tok;
        std::string t;
        while (ls >> t)
            tok.push_back(t);
        if (tok.empty())
            continue;
        if (!got_header) {
            if (tok.size() != 2 || tok[0] != "pnl" || tok[1] != "1")
                err("expected 'pnl 1' header");
            got_header = true;
            continue;
        }
        const std::string &kw = tok[0];
        if (kw == "design") {
            if (tok.size() != 2)
                err("design takes one name");
            nl = Netlist(tok[1]);
            labels.clear();
        } else if (kw == "reg") {
            if (tok.size() != 4)
                err("reg <name> <width> <init-hex>");
            uint16_t w = static_cast<uint16_t>(num(tok[2]));
            nl.addRegister(tok[1], w, BitVec::fromHex(w, tok[3]));
        } else if (kw == "mem") {
            if (tok.size() != 4)
                err("mem <name> <width> <depth>");
            nl.addMemory(tok[1], static_cast<uint16_t>(num(tok[2])),
                         static_cast<uint32_t>(num(tok[3])));
        } else if (kw == "meminit") {
            if (tok.size() != 4)
                err("meminit <mem> <index> <value-hex>");
            MemId m = nl.findMemory(tok[1]);
            if (m == nl.numMemories())
                err("unknown memory " + tok[1]);
            // Accumulate sparse init entries into a dense image.
            const Memory &mem = nl.mem(m);
            std::vector<BitVec> image = mem.init;
            uint64_t idx = num(tok[2]);
            if (idx >= mem.depth)
                err("meminit index out of range");
            if (image.size() <= idx)
                image.resize(idx + 1, BitVec(mem.width, uint64_t{0}));
            image[idx] = BitVec::fromHex(mem.width, tok[3]);
            nl.initMemory(m, std::move(image));
        } else if (kw == "regnext") {
            if (tok.size() != 3)
                err("regnext <reg> %value");
            RegId r = nl.findRegister(tok[1]);
            if (r == nl.numRegisters())
                err("unknown register " + tok[1]);
            nl.setRegisterNext(r, ref(nl, tok[2]));
        } else if (kw == "memwrite") {
            if (tok.size() != 5)
                err("memwrite <mem> %addr %data %en");
            MemId m = nl.findMemory(tok[1]);
            if (m == nl.numMemories())
                err("unknown memory " + tok[1]);
            nl.writeMemory(m, ref(nl, tok[2]), ref(nl, tok[3]),
                           ref(nl, tok[4]));
        } else if (kw == "output") {
            if (tok.size() != 3)
                err("output <name> %value");
            nl.addOutput(tok[1], ref(nl, tok[2]));
        } else if (kw[0] == '%') {
            if (tok.size() < 3 || tok[1] != "=")
                err("node line must be '%label = op ...'");
            std::string label = kw.substr(1);
            if (labels.count(label))
                err("label %" + label + " redefined");
            const std::string &op = tok[2];
            NodeId id;
            if (op == "const") {
                if (tok.size() != 5)
                    err("const <width> <value-hex>");
                uint16_t w = static_cast<uint16_t>(num(tok[3]));
                id = nl.addConst(BitVec::fromHex(w, tok[4]));
            } else if (op == "input") {
                if (tok.size() != 5)
                    err("input <name> <width>");
                id = nl.addInput(tok[3],
                                 static_cast<uint16_t>(num(tok[4])));
            } else if (op == "regread") {
                if (tok.size() != 4)
                    err("regread <reg>");
                RegId r = nl.findRegister(tok[3]);
                if (r == nl.numRegisters())
                    err("unknown register " + tok[3]);
                id = nl.readRegister(r);
            } else if (op == "memread") {
                if (tok.size() != 5)
                    err("memread <mem> %addr");
                MemId m = nl.findMemory(tok[3]);
                if (m == nl.numMemories())
                    err("unknown memory " + tok[3]);
                id = nl.readMemory(m, ref(nl, tok[4]));
            } else if (op == "mux") {
                if (tok.size() != 6)
                    err("mux %sel %then %else");
                id = nl.addMux(ref(nl, tok[3]), ref(nl, tok[4]),
                               ref(nl, tok[5]));
            } else if (op == "concat") {
                if (tok.size() != 5)
                    err("concat %hi %lo");
                id = nl.addConcat(ref(nl, tok[3]), ref(nl, tok[4]));
            } else if (op == "slice") {
                if (tok.size() != 6)
                    err("slice %a <lsb> <width>");
                id = nl.addSlice(ref(nl, tok[3]),
                                 static_cast<uint32_t>(num(tok[4])),
                                 static_cast<uint16_t>(num(tok[5])));
            } else if (op == "zext" || op == "sext") {
                if (tok.size() != 5)
                    err(op + " %a <width>");
                id = nl.addExtend(op == "zext" ? Op::ZExt : Op::SExt,
                                  ref(nl, tok[3]),
                                  static_cast<uint16_t>(num(tok[4])));
            } else {
                auto it = opTable().find(op);
                if (it == opTable().end())
                    err("unknown op '" + op + "'");
                int arity = opArity(it->second);
                if (static_cast<int>(tok.size()) != 3 + arity)
                    err(strCat(op, " takes ", arity, " operand(s)"));
                if (arity == 1)
                    id = nl.addUnary(it->second, ref(nl, tok[3]));
                else
                    id = nl.addBinary(it->second, ref(nl, tok[3]),
                                      ref(nl, tok[4]));
            }
            labels[label] = id;
        } else {
            err("unknown keyword '" + kw + "'");
        }
    }
    if (!got_header)
        fatal("pnl: empty input (missing 'pnl 1' header)");
    nl.check();
    return nl;
}

} // namespace

Netlist
parsePnl(const std::string &text)
{
    Parser p(text);
    return p.parse();
}

Netlist
parsePnlFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot open %s", path.c_str());
    std::ostringstream ss;
    ss << f.rdbuf();
    return parsePnl(ss.str());
}

std::string
writePnl(const Netlist &nl)
{
    std::ostringstream out;
    out << "pnl 1\n";
    out << "design " << nl.name() << "\n";
    for (RegId r = 0; r < nl.numRegisters(); ++r) {
        const Register &reg = nl.reg(r);
        out << "reg " << reg.name << " " << reg.width << " "
            << reg.init.toHex() << "\n";
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const Memory &mem = nl.mem(m);
        out << "mem " << mem.name << " " << mem.width << " " << mem.depth
            << "\n";
        for (size_t i = 0; i < mem.init.size(); ++i)
            if (!mem.init[i].isZero())
                out << "meminit " << mem.name << " " << i << " "
                    << mem.init[i].toHex() << "\n";
    }
    // Emit nodes in ascending id order: construction order is
    // topological (operands precede users, enforced by check()), and
    // it also preserves memory write-port order, which is part of the
    // semantics.
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
        const Node &n = nl.node(id);
        auto lbl = [](NodeId x) { return strCat("%", x); };
        switch (n.op) {
          case Op::Const:
            out << lbl(id) << " = const " << n.width << " "
                << nl.constValue(n.aux).toHex() << "\n";
            break;
          case Op::Input:
            out << lbl(id) << " = input " << nl.input(n.aux).name << " "
                << n.width << "\n";
            break;
          case Op::RegRead:
            out << lbl(id) << " = regread " << nl.reg(n.aux).name << "\n";
            break;
          case Op::MemRead:
            out << lbl(id) << " = memread " << nl.mem(n.aux).name << " "
                << lbl(n.operands[0]) << "\n";
            break;
          case Op::Mux:
            out << lbl(id) << " = mux " << lbl(n.operands[0]) << " "
                << lbl(n.operands[1]) << " " << lbl(n.operands[2]) << "\n";
            break;
          case Op::Concat:
            out << lbl(id) << " = concat " << lbl(n.operands[0]) << " "
                << lbl(n.operands[1]) << "\n";
            break;
          case Op::Slice:
            out << lbl(id) << " = slice " << lbl(n.operands[0]) << " "
                << n.aux << " " << n.width << "\n";
            break;
          case Op::ZExt:
          case Op::SExt:
            out << lbl(id) << " = "
                << (n.op == Op::ZExt ? "zext" : "sext") << " "
                << lbl(n.operands[0]) << " " << n.width << "\n";
            break;
          case Op::RegNext:
            out << "regnext " << nl.reg(n.aux).name << " "
                << lbl(n.operands[0]) << "\n";
            break;
          case Op::MemWrite:
            out << "memwrite " << nl.mem(n.aux).name << " "
                << lbl(n.operands[0]) << " " << lbl(n.operands[1]) << " "
                << lbl(n.operands[2]) << "\n";
            break;
          case Op::Output:
            out << "output " << nl.output(n.aux).name << " "
                << lbl(n.operands[0]) << "\n";
            break;
          default: {
            out << lbl(id) << " = " << opName(n.op);
            for (int i = 0; i < opArity(n.op); ++i)
                out << " " << lbl(n.operands[i]);
            out << "\n";
            break;
          }
        }
    }
    return out.str();
}

void
writePnlFile(const Netlist &nl, const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot write %s", path.c_str());
    f << writePnl(nl);
}

} // namespace parendi::frontend
