package perfbench

import java.nio.file.{Files, Paths}

/** This machine's CPU time so far, in clock ticks, from the first line of
  * /proc/stat: `busy` (user, nice, system, irq, softirq) and `steal`, the
  * time its virtual CPUs were ready to run but the hypervisor ran another
  * tenant instead. On a shared host, other tenants' load shows up as steal.
  */
final case class CpuTicks(busy: Long, steal: Long) {

  /** The share of the CPU time this machine wanted between `this` and
    * `later` that was stolen. A program that progresses in proportion to
    * the CPU time it gets would have taken (1 - share) of its wall time
    * had nothing been stolen, whether it ran on one core or on all.
    */
  def stealShare(later: CpuTicks): Double = {
    val b = later.busy - busy
    val s = later.steal - steal
    if (b + s <= 0) 0.0 else s.toDouble / (b + s)
  }
}

object CpuTicks {
  private val stat = Paths.get("/proc/stat")

  /** Parses the aggregate `cpu` line: user nice system idle iowait irq softirq steal ... */
  def parse(cpuLine: String): CpuTicks = {
    val f = cpuLine.trim.split("\\s+").drop(1).map(_.toLong)
    CpuTicks(f(0) + f(1) + f(2) + f(5) + f(6), if (f.length > 7) f(7) else 0L)
  }

  /** Now; all zero where /proc/stat does not exist, so that no steal is seen. */
  def now(): CpuTicks =
    if (Files.isReadable(stat)) parse(Files.readAllLines(stat).get(0)) else CpuTicks(0, 0)
}

/** A workflow's latency and the share of CPU time stolen while it ran. */
final case class Timing(ms: Double, stealShare: Double) {
  /** Wall time net of steal: the latency on an otherwise idle host. */
  def netMs: Double = ms * (1 - stealShare)
}
