#include "workload/program.hh"

#include "util/logging.hh"

namespace ghrp::workload
{

namespace
{

/** Block @p bi of function @p fi's list, after checking that it is
 *  non-empty and lies inside the program's list array. */
std::span<const std::uint32_t>
listOf(const Program &program, const BasicBlock &b, std::size_t fi,
       std::size_t bi)
{
    if (b.listSize == 0)
        panic("function %zu block %zu: %s with no %s", fi, bi,
              b.term == TermKind::IndirectJump ? "switch" : "call",
              b.term == TermKind::IndirectJump ? "targets" : "callees");
    if (std::uint64_t{b.listOffset} + b.listSize > program.lists.size())
        panic("function %zu block %zu: list outside the list array", fi,
              bi);
    return program.targets(b);
}

} // anonymous namespace

std::uint64_t
Program::memoryBytes() const
{
    std::uint64_t bytes = sizeof(Program) +
                          functions.capacity() * sizeof(Function) +
                          modules.capacity() * sizeof(modules[0]) +
                          lists.capacity() * sizeof(lists[0]);
    for (const Function &f : functions)
        bytes += f.blocks.capacity() * sizeof(BasicBlock);
    for (const auto &module : modules)
        bytes += module.capacity() * sizeof(module[0]);
    return bytes;
}

void
validateProgram(const Program &program)
{
    if (program.functions.empty())
        panic("program has no functions");
    if (program.mainFunction >= program.functions.size())
        panic("main function index out of range");

    for (std::size_t fi = 0; fi < program.functions.size(); ++fi) {
        const Function &f = program.functions[fi];
        if (f.blocks.empty())
            panic("function %zu has no blocks", fi);
        if (f.blocks.front().start != f.entry)
            panic("function %zu entry does not match first block", fi);

        Addr expected = f.entry;
        for (std::size_t bi = 0; bi < f.blocks.size(); ++bi) {
            const BasicBlock &b = f.blocks[bi];
            if (b.numInstrs == 0)
                panic("function %zu block %zu is empty", fi, bi);
            if (b.start != expected)
                panic("function %zu block %zu not contiguous", fi, bi);
            expected = b.fallThrough(program.instBytes);

            switch (b.term) {
              case TermKind::CondForward:
                if (b.targetBlock <= bi || b.targetBlock >= f.blocks.size())
                    panic("function %zu block %zu: bad forward target",
                          fi, bi);
                break;
              case TermKind::CondLoop:
                if (b.targetBlock > bi)
                    panic("function %zu block %zu: loop target not backward",
                          fi, bi);
                break;
              case TermKind::Jump:
                if (b.targetBlock >= f.blocks.size())
                    panic("function %zu block %zu: bad jump target", fi, bi);
                break;
              case TermKind::Call:
              case TermKind::IndirectCall:
                for (std::uint32_t callee : listOf(program, b, fi, bi))
                    if (callee >= program.functions.size())
                        panic("function %zu block %zu: callee out of range",
                              fi, bi);
                break;
              case TermKind::IndirectJump:
                for (std::uint32_t t : listOf(program, b, fi, bi))
                    if (t >= f.blocks.size())
                        panic("function %zu block %zu: switch target range",
                              fi, bi);
                break;
              case TermKind::None:
                if (bi + 1 >= f.blocks.size())
                    panic("function %zu: last block falls through", fi);
                break;
              case TermKind::Return:
                break;
            }
        }

        // A function must be able to return; require the last block to
        // be a return so execution cannot run off the end.
        if (f.blocks.back().term != TermKind::Return &&
            f.blocks.back().term != TermKind::Jump &&
            f.blocks.back().term != TermKind::CondLoop &&
            f.blocks.back().term != TermKind::IndirectJump)
            panic("function %zu: last block cannot terminate", fi);
    }

    for (const auto &module : program.modules)
        for (std::uint32_t func : module)
            if (func >= program.functions.size())
                panic("module member out of range");
}

} // namespace ghrp::workload
